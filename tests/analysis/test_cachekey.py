"""Rule R4: every result-affecting field reaches its cache-key builder.

The historical bug class (PR 4): the result cache keyed answers
without the table's streaming version, so an append left a pre-append
answer reachable at a post-append version.
"""

from __future__ import annotations

import textwrap

from repro.analysis import Analyzer, ModuleInfo
from repro.analysis.rules.cachekey import CacheKeyRule


def _run(findings_of, source):
    return findings_of(textwrap.dedent(source), [CacheKeyRule()])


def test_missing_field_flagged(findings_of):
    found = _run(
        findings_of,
        """
        import dataclasses

        @dataclasses.dataclass
        class Request:
            table: str
            version: int

        def cache_key(req):  # cache-key-of: Request
            return (req.table,)
        """,
    )
    assert len(found) == 1
    assert found[0].rule == "R4"
    assert "Request.version never reaches cache-key" in found[0].message
    assert found[0].symbol == "cache_key"


def test_exempt_fields_are_skipped(findings_of):
    found = _run(
        findings_of,
        """
        import dataclasses

        @dataclasses.dataclass
        class Request:
            table: str
            use_cache: bool = True

        def cache_key(req):  # cache-key-of: Request (exempt: use_cache)
            return (req.table,)
        """,
    )
    assert found == []


def test_to_dict_call_is_dynamically_complete(findings_of):
    found = _run(
        findings_of,
        """
        import dataclasses

        @dataclasses.dataclass
        class Config:
            seed: int
            width: int

        def config_key(config):  # cache-key-of: Config
            return tuple(sorted(config.to_dict().items()))
        """,
    )
    assert found == []


def test_one_hop_delegation_covers_delegated_fields(findings_of):
    found = _run(
        findings_of,
        """
        import dataclasses

        @dataclasses.dataclass
        class Request:
            table: str
            query: str
            version: int

        def cache_key(req):  # cache-key-of: Request
            return (req.table, _tail(req))

        def _tail(req):
            return (req.query, req.version)
        """,
    )
    assert found == []


def test_string_constants_count_as_visible(findings_of):
    found = _run(
        findings_of,
        """
        import dataclasses

        @dataclasses.dataclass
        class Config:
            seed: int
            width: int

        def config_key(config):  # cache-key-of: Config
            return (config.seed, getattr(config, "width"))
        """,
    )
    assert found == []


def test_unknown_class_in_marker_is_itself_a_finding(findings_of):
    found = _run(
        findings_of,
        """
        def cache_key(req):  # cache-key-of: Nonexistent
            return (req.table,)
        """,
    )
    assert len(found) == 1
    assert "not a dataclass in the analyzed files" in found[0].message


def test_cross_module_dataclass_and_builder(analyze):
    # The real layout: the dataclass and its key builder live in
    # different files, so R4 runs in the project-wide pass.
    config = ModuleInfo.from_source(
        textwrap.dedent(
            """
            import dataclasses

            @dataclasses.dataclass
            class Config:
                seed: int
                workers: int
            """
        ),
        rel_path="pkg/config.py",
    )
    service = ModuleInfo.from_source(
        textwrap.dedent(
            """
            def config_key(config):  # cache-key-of: Config
                return (config.seed,)
            """
        ),
        rel_path="pkg/service.py",
    )
    report = Analyzer(rules=[CacheKeyRule()]).run_modules(
        [config, service]
    )
    assert len(report.findings) == 1
    assert "Config.workers" in report.findings[0].message
    assert report.findings[0].path == "pkg/service.py"


def test_private_fields_are_not_required(findings_of):
    found = _run(
        findings_of,
        """
        import dataclasses

        @dataclasses.dataclass
        class Config:
            seed: int
            _cached_hash: int = 0

        def config_key(config):  # cache-key-of: Config
            return (config.seed,)
        """,
    )
    assert found == []


def test_one_hop_follows_a_helper_imported_from_another_file(analyze):
    # The result-cache key delegates its config component to
    # ``repro.engine.contexts.config_key``: the helper's names count.
    request = ModuleInfo.from_source(
        textwrap.dedent(
            """
            import dataclasses

            @dataclasses.dataclass
            class Request:
                table: str
                workers: int

            def workers_key(req):
                return req.workers
            """
        ),
        rel_path="src/pkg/keys.py",
    )
    source = """
        from pkg.keys import workers_key

        def cache_key(req):  # cache-key-of: Request
            return (req.table, {call})
        """
    covered, missing = (
        ModuleInfo.from_source(
            textwrap.dedent(source.format(call=call)),
            rel_path="src/pkg/service.py",
        )
        for call in ("workers_key(req)", "other_key(req)")
    )
    analyzer = Analyzer(rules=[CacheKeyRule()])
    assert analyzer.run_modules([request, covered]).findings == []
    found = analyzer.run_modules([request, missing]).findings
    assert len(found) == 1 and "Request.workers" in found[0].message
