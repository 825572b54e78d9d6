"""Deep-web source discovery: crawl the surface web for search forms.

The paper's corpus began with "a breadth first crawl of the Web
starting at a seed URL and Google [identifying] over 3,000 unique
search forms". This package reproduces that stage against a simulated
surface web:

- :mod:`repro.discovery.web` — a seeded static web graph whose pages
  carry links, boilerplate, and (on some pages) the search forms of
  simulated deep-web sites.
- :mod:`repro.discovery.crawler` — link extraction and the
  :class:`~repro.discovery.crawler.DiscoveredForm` provenance record
  that the crawl frontier (:func:`repro.api.crawl`) builds on while it
  visits the graph and collects the unique search forms it encounters.
"""

from repro.discovery.crawler import DiscoveredForm
from repro.discovery.web import SimulatedWeb

__all__ = [
    "DiscoveredForm",
    "SimulatedWeb",
]
