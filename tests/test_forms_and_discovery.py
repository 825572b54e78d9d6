"""Tests for search-form detection and the discovery crawl."""

from __future__ import annotations

import pytest

from repro.config import CrawlConfig, ThorConfig
from repro.discovery import SimulatedWeb
from repro.errors import SiteGenerationError
from repro.frontier.service import run_crawl
from repro.html import parse
from repro.html.forms import FormField, SearchForm, find_search_forms


def forms_in(html):
    return find_search_forms(parse(html))


def crawl(fetch, seeds=None, max_pages=300):
    """One storeless frontier crawl under a ``max_pages`` budget."""
    return run_crawl(
        fetch, seeds, config=ThorConfig(seed=0, crawl=CrawlConfig(max_pages=max_pages))
    )


class TestFindSearchForms:
    def test_simple_search_form(self):
        forms = forms_in(
            '<form action="/search" method="get">'
            '<input type="text" name="q"><input type="submit"></form>'
        )
        assert len(forms) == 1
        assert forms[0].action == "/search"
        assert forms[0].method == "get"

    def test_typeless_input_counts_as_text(self):
        forms = forms_in('<form action="/s"><input name="query"></form>')
        assert len(forms) == 1

    def test_textarea_counts_as_text(self):
        forms = forms_in('<form action="/s"><textarea name="q"></textarea></form>')
        assert len(forms) == 1

    def test_login_form_rejected(self):
        forms = forms_in(
            '<form action="/login">'
            '<input type="text" name="username">'
            '<input type="password" name="password"></form>'
        )
        assert forms == []

    def test_checkout_form_rejected(self):
        forms = forms_in(
            '<form action="/buy">'
            '<input type="text" name="card"><input type="text" name="cvv">'
            "</form>"
        )
        assert forms == []

    def test_button_only_form_rejected(self):
        forms = forms_in('<form action="/go"><input type="submit"></form>')
        assert forms == []

    def test_many_text_boxes_rejected(self):
        inputs = "".join(
            f'<input type="text" name="f{i}">' for i in range(4)
        )
        assert forms_in(f'<form action="/reg">{inputs}</form>') == []

    def test_multiple_forms_in_document_order(self):
        forms = forms_in(
            '<form action="/a"><input name="q"></form>'
            '<form action="/b"><input name="q"></form>'
        )
        assert [f.action for f in forms] == ["/a", "/b"]

    def test_select_fields_modeled(self):
        (form,) = forms_in(
            '<form action="/s"><input name="q">'
            '<select name="category"><option>All</option></select></form>'
        )
        assert any(f.input_type == "select" for f in form.fields)


class TestSearchForm:
    def test_query_field_prefers_search_names(self):
        form = SearchForm(
            action="/s",
            method="get",
            fields=(
                FormField("notes", "text"),
                FormField("q", "text"),
            ),
        )
        assert form.query_field.name == "q"

    def test_query_field_falls_back_to_first_text(self):
        form = SearchForm(
            action="/s",
            method="get",
            fields=(FormField("anything", "text"),),
        )
        assert form.query_field.name == "anything"

    def test_submit_url(self):
        form = SearchForm(
            action="http://h/search",
            method="get",
            fields=(FormField("q", "text"),),
        )
        assert form.submit_url("cat") == "http://h/search?q=cat"

    def test_submit_url_existing_query_string(self):
        form = SearchForm(
            action="http://h/search?lang=en",
            method="get",
            fields=(FormField("q", "text"),),
        )
        assert form.submit_url("cat") == "http://h/search?lang=en&q=cat"


class TestSimulatedWeb:
    def test_deterministic(self):
        a = SimulatedWeb(n_pages=30, n_portals=3, seed=5)
        b = SimulatedWeb(n_pages=30, n_portals=3, seed=5)
        assert a.fetch(a.seed_url) == b.fetch(b.seed_url)

    def test_fetch_unknown_raises(self):
        web = SimulatedWeb(seed=1)
        with pytest.raises(KeyError):
            web.fetch("http://elsewhere.example/")

    def test_page_index_roundtrip(self):
        web = SimulatedWeb(n_pages=10, n_portals=2, seed=2)
        assert web.page_index(web.url(3)) == 3
        assert web.page_index("http://other/") is None
        assert web.page_index(web.url(3) + "9999") is None

    def test_invalid_shapes_raise(self):
        with pytest.raises(SiteGenerationError):
            SimulatedWeb(n_pages=1)
        with pytest.raises(SiteGenerationError):
            SimulatedWeb(n_pages=5, n_portals=5)

    def test_site_for_form_action(self):
        web = SimulatedWeb(n_pages=30, n_portals=2, seed=3)
        site = web.sites[0]
        assert web.site_for_form_action(
            f"http://{site.theme.host}/search"
        ) is site
        assert web.site_for_form_action("http://unknown/") is None


class TestBreadthFirstCrawler:
    @pytest.fixture(scope="class")
    def web(self):
        return SimulatedWeb(n_pages=60, n_portals=6, seed=1)

    @pytest.fixture(scope="class")
    def report(self, web):
        return crawl(web)

    def test_discovers_all_reachable_portals(self, web, report):
        assert len(report.forms) >= 4  # most portals reachable
        for discovered in report.forms:
            assert web.site_for_form_action(discovered.form.action)

    def test_forms_unique_by_action(self, report):
        actions = [d.form.action for d in report.forms]
        assert len(actions) == len(set(actions))

    def test_budget_respected(self, web):
        # The budget counts attempted URLs (fetched or failed).
        report = crawl(web, max_pages=5)
        assert report.attempted <= 5
        assert report.pages_fetched <= 5

    def test_depths_nondecreasing(self, report):
        depths = [d.depth for d in report.forms]
        assert depths == sorted(depths)

    def test_fetch_failures_tolerated(self):
        def flaky(url):
            if url.endswith("bad"):
                raise IOError("dead link")
            return ('<a href="http://x/bad"></a>'
                    '<form action="/s"><input name="q"></form>')

        report = crawl(flaky, ["http://x/ok"], max_pages=10)
        assert report.pages_failed == 1
        assert report.pages_fetched == 1
        assert len(report.forms) == 1

    def test_non_http_links_skipped(self):
        def fetch(url):
            return '<a href="mailto:x@y"></a><a href="javascript:void(0)"></a>'

        report = crawl(fetch, ["http://a/"], max_pages=10)
        assert report.pages_fetched == 1

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            CrawlConfig(max_pages=0)

    def test_cycle_termination(self):
        def fetch(url):
            return f'<a href="http://a/1"></a><a href="http://a/2"></a>'

        report = crawl(fetch, ["http://a/1"], max_pages=50)
        assert report.exhausted
        assert report.pages_fetched <= 3
