"""The REPL's service bridge: serve / connect / remote."""

import re

import pytest

from repro.frontend.repl import run_script
from repro.service import ExplorationService, ServiceClient, serve


@pytest.fixture(scope="module")
def table():
    from repro.datagen import census_table

    return census_table(n_rows=2000, seed=11)


class TestServe:
    def test_serve_announces_url_and_answers_clients(self, table):
        # Drive the REPL manually so we can talk to its server while
        # the loop is still alive.
        import io

        from repro.frontend.repl import ExplorerRepl

        stdin = io.StringIO()  # empty: run() returns after the script
        stdout = io.StringIO()
        repl = ExplorerRepl(table, stdin=stdin, stdout=stdout)
        repl.run("Age: [17, 90]")  # consumes the (empty) input
        repl._dispatch("serve")
        try:
            out = stdout.getvalue()
            match = re.search(r"serving 'census' at (http://\S+)", out)
            assert match, out
            client = ServiceClient(match.group(1))
            assert "census" in client.tables()
            response = client.explore("census", "Age: [17, 45]")
            assert response.map_set.n_rows_used == table.n_rows
        finally:
            repl._server.close(close_service=True)
            repl._server = None

    def test_serve_twice_is_idempotent(self, table):
        out = run_script(table, ["serve", "serve", "quit"])
        assert out.count("serving 'census'") == 1
        assert "already serving" in out

    def test_serve_rejects_bad_port(self, table):
        out = run_script(table, ["serve not-a-port", "quit"])
        assert "error: serve takes a port number" in out

    def test_serve_has_no_frontend_choice(self, table):
        # One frontend: "async" is no longer a word `serve` knows.
        out = run_script(table, ["serve async 0", "quit"])
        assert "error: serve takes a port number" in out
        assert "serving" not in out

    def test_serve_on_busy_port_reports_error_and_loop_survives(self, table):
        service = ExplorationService()
        service.register(table)
        with serve(service) as server:
            _, port = server.address
            out = run_script(table, [f"serve {port}", "maps", "quit"])
        service.close()
        assert f"error: cannot serve on port {port}" in out
        assert "bye." in out  # the loop kept going

    def test_serve_shares_the_session_config(self, table):
        import io

        from repro.core.config import AtlasConfig
        from repro.frontend.repl import ExplorerRepl

        repl = ExplorerRepl(
            table, config=AtlasConfig(max_maps=1), stdin=io.StringIO(),
            stdout=io.StringIO(),
        )
        repl.run()
        repl._dispatch("serve")
        try:
            client = ServiceClient(repl._server.url)
            # With the session's max_maps=1 the whole-table answer has a
            # single map; the default config would return three.
            response = client.explore("census")
            assert len(response.map_set) == 1
        finally:
            repl._server.close(close_service=True)
            repl._server = None


class TestConnectAndRemote:
    def test_connect_then_remote_round_trip(self, table):
        service = ExplorationService()
        service.register(table)
        with serve(service) as server:
            out = run_script(
                table,
                [f"connect {server.url}", "remote", "remote", "quit"],
                initial_query="Age: [17, 90]",
            )
        service.close()
        assert f"connected to {server.url}" in out
        assert "tables: census" in out
        assert out.count("remote answer") == 2
        # First remote call computes, the repeat hits the result cache.
        assert "computed in" in out
        assert "result cache" in out

    def test_remote_without_connect_errors(self, table):
        out = run_script(table, ["remote", "quit"])
        assert "error: not connected" in out

    def test_connect_to_dead_server_errors(self, table):
        out = run_script(
            table, ["connect http://127.0.0.1:1", "quit"]
        )
        assert "error: cannot reach service" in out
