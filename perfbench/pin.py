"""Recompute the pinned reference digests in ``references.json``.

Run from the checkout root after a change that is meant to alter the
program's output::

    python3 perfbench/pin.py    # about 7 minutes on 2 vCPUs

References are computed another way than the workloads run: cold
sites serially without a store (the cold_jobs2 reference), refresh
variants as a cold run over the mutated pages, crawls over one
connection.
"""

from __future__ import annotations

import argparse
import json
import sys

import checkout

REFERENCES = checkout.ROOT / "perfbench" / "references.json"


def pin_cold() -> dict:
    from repro import api
    from repro.io.export import result_digest
    from workloads import COLD_SEED_BASE, COLD_SITES, GENRES, reference_key, site_config

    digests = {}
    for genre in GENRES:
        for site_seed in range(COLD_SEED_BASE, COLD_SEED_BASE + COLD_SITES):
            result = api.run(api.make_site(genre, seed=site_seed), site_config(site_seed))
            digests[reference_key((genre, site_seed))] = result_digest(result)
    return digests


def pin_refresh() -> dict:
    from repro import api
    from repro.io.export import result_digest
    from workloads import (
        GENRES,
        REFRESH_VARIANTS,
        drifted_site,
        reference_key,
        refresh_site_seed,
        site_config,
    )

    digests = {}
    for genre in GENRES:
        config = site_config(refresh_site_seed(genre))
        for variant in range(REFRESH_VARIANTS):
            result = api.run(drifted_site(genre, variant), config)
            digests[reference_key((genre, variant))] = result_digest(result)
    return digests


def pin_crawl() -> dict:
    from repro import api
    from loopback import LoopbackWeb
    from workloads import (
        WEB_SEED_BASE,
        WEBS,
        crawl_config,
        crawl_digest,
        make_web,
        reference_key,
    )

    digests = {}
    loopback = LoopbackWeb()
    try:
        for web_seed in range(WEB_SEED_BASE, WEB_SEED_BASE + WEBS):
            web = make_web(web_seed)
            seed_url = loopback.serve(web)
            config = crawl_config(web_seed, connections=1)
            with api.HttpFetcher(config.transport, seed=web_seed) as fetcher:
                report = api.crawl(fetcher, seeds=[seed_url], config=config)
            if report.pages_failed:
                raise SystemExit(f"perfbench: web {web_seed}: {report.pages_failed} fetches failed")
            digests[reference_key(web_seed)] = crawl_digest(loopback, web, report)
    finally:
        loopback.close()
    return digests


POOL_PINS = {"cold": pin_cold, "refresh": pin_refresh, "crawl": pin_crawl}


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    checkout.import_program()
    from workloads import POOLS

    references = {}
    for section in sorted(POOL_PINS):
        references[section] = {"pool": POOLS[section], "digests": POOL_PINS[section]()}
        print(f"pinned {len(references[section]['digests'])} {section} references", file=sys.stderr)
    REFERENCES.write_text(
        json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
