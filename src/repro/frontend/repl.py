"""Scriptable exploration driver: the interaction loop of Figure 1.

A tiny command interpreter over :class:`~repro.core.session.
ExplorationSession`.  Input and output streams are injectable, so the
loop is fully testable and the examples can replay canned scripts.

Commands::

    maps            show the current ranked maps
    next            advance to the next map (the "request a new map" verb)
    drill <i>       submit region i of the current map for exploration
    back            pop one drill-down level
    where           show the breadcrumb trail
    fidelity [spec] show or switch execution fidelity (exact / sketch)
    parallel [spec] show or switch multi-core execution (serial / parallel)
    cluster [urls|off] attach shard servers (scatter/gather) or detach
    append <rows>   append rows (streaming): ``Age=30, Sex=F; Age=41, Sex=M``
    tokens <column> top tokens of a text column (match/contains vocabulary)
    refresh         re-explore the breadcrumb against the latest version
    watch           toggle auto-refresh after every append
    serve [port]    expose this table through an exploration service
    connect <url>   attach to a running exploration service
    remote          answer the current query through the service
    quit            leave the loop
"""

from __future__ import annotations

import io
import sys

from repro.core.config import AtlasConfig
from repro.core.exemplars import representative_examples
from repro.core.explain import explain_region
from repro.core.session import ExplorationSession  # noqa: F401 - public type
from repro.dataset.table import Table
from repro.engine.facade import explorer
from repro.errors import AtlasError
from repro.frontend.render import (
    render_breadcrumb,
    render_examples,
    render_map,
    render_map_set,
)
from repro.query.parser import parse_query
from repro.query.query import ConjunctiveQuery

PROMPT = "atlas> "

HELP_TEXT = """commands:
  maps         show the ranked maps for the current query
  next         cycle to the next ranked map
  drill <i>    explore region i of the current map
  explain <i>  why is region i interesting? (subset vs whole, §5.2)
  examples <i> representative tuples of region i (§5.2)
  back         return to the previous query
  where        show the exploration breadcrumb
  fidelity [spec] show or set fidelity: exact, sketch[:rows[:eps]]
  parallel [spec] show or set workers: serial, parallel[:workers[:shards]],
               cluster[:servers[:shards]]
  cluster [urls|off] attach shard-server URLs and explore over them;
               `cluster` alone shows the attached servers, `off` detaches
  append <rows> append rows, e.g. `append Age=30, Sex=F; Age=41, Sex=M`
  tokens <column> top tokens of a text column — the vocabulary
               `column: match '...'` / `contains '...'` predicates hit
  refresh      re-explore the breadcrumb at the latest table version
  watch        toggle auto-refresh after appends
  serve [port] start an HTTP exploration service for this table
  connect <url> attach to a running exploration service
  remote       answer the current query via the connected service
  help         this text
  quit         exit"""


class ExplorerRepl:
    """Line-oriented front-end over an exploration session."""

    def __init__(
        self,
        table: Table,
        config: AtlasConfig | None = None,
        stdin: io.TextIOBase | None = None,
        stdout: io.TextIOBase | None = None,
    ):
        # Route through the fluent facade so the REPL shares one engine
        # context: every drill-down reuses the statistics computed for
        # earlier answers.
        self._session = explorer(table, config).session()
        self._stdin = stdin if stdin is not None else sys.stdin
        self._stdout = stdout if stdout is not None else sys.stdout
        self._server = None   # started by the `serve` command
        self._client = None   # attached by the `connect` command
        self._watch = False   # toggled by the `watch` command

    @property
    def session(self) -> ExplorationSession:
        """The underlying session (examples inspect it after a script)."""
        return self._session

    def run(self, initial_query: ConjunctiveQuery | str | None = None) -> None:
        """Start the loop; returns when the input ends or on ``quit``."""
        if isinstance(initial_query, str):
            initial_query = parse_query(initial_query)
        map_set = self._session.start(initial_query)
        self._print(render_map_set(map_set, self._session.explorer.table))
        self._print(HELP_TEXT)
        for raw_line in self._stdin:
            line = raw_line.strip()
            if not line:
                continue
            if line in {"quit", "exit", "q"}:
                break
            try:
                self._dispatch(line)
            except AtlasError as error:
                self._print(f"error: {error}")
        if self._server is not None:
            self._server.close(close_service=True)
            self._server = None
        self._print("bye.")

    def _dispatch(self, line: str) -> None:
        command, _, argument = line.partition(" ")
        table = self._session.explorer.table
        if command == "maps":
            self._print(render_map_set(self._session.current.map_set, table))
        elif command == "next":
            shown = self._session.next_map()
            self._print(render_map(shown, table))
        elif command == "drill":
            index = self._parse_index(argument)
            map_set = self._session.drill(index)
            self._print(render_map_set(map_set, table))
        elif command == "back":
            map_set = self._session.back()
            self._print(render_map_set(map_set, table))
        elif command == "explain":
            index = self._parse_index(argument)
            region = self._region(index)
            skip = tuple(
                p.attribute for p in region.predicates if p.is_restrictive
            )
            explanation = explain_region(table, region, skip)
            self._print(explanation.describe(k=3))
        elif command == "examples":
            index = self._parse_index(argument)
            examples = representative_examples(table, self._region(index), k=3)
            self._print(render_examples(examples, title="representatives"))
        elif command == "where":
            self._print(render_breadcrumb(self._session.breadcrumb()))
        elif command == "fidelity":
            self._fidelity(argument)
        elif command == "parallel":
            self._parallel(argument)
        elif command == "cluster":
            self._cluster(argument)
        elif command == "append":
            self._append(argument)
        elif command == "tokens":
            self._tokens(argument)
        elif command == "refresh":
            self._print(
                render_map_set(
                    self._session.refresh(), self._session.explorer.table
                )
            )
        elif command == "watch":
            self._watch = not self._watch
            self._print(
                "watch on: appends re-explore the breadcrumb automatically"
                if self._watch else "watch off"
            )
        elif command == "serve":
            self._serve(argument)
        elif command == "connect":
            self._connect(argument)
        elif command == "remote":
            self._remote()
        elif command == "help":
            self._print(HELP_TEXT)
        else:
            self._print(f"unknown command {command!r}; try 'help'")

    # ------------------------------------------------------------------ #
    # Fidelity
    # ------------------------------------------------------------------ #

    def _fidelity(self, argument: str) -> None:
        """Show or switch the session's execution fidelity.

        ``fidelity`` alone reports the current setting;
        ``fidelity sketch:20000`` (or ``exact``) re-answers the whole
        breadcrumb at the new fidelity, so the drill-down position and
        history survive the switch.
        """
        argument = argument.strip()
        if not argument:
            fidelity = self._session.explorer.config.fidelity
            self._print(f"fidelity: {fidelity.spec()}")
            return
        map_set = self._session.reconfigure(fidelity=argument)
        fidelity = self._session.explorer.config.fidelity
        self._print(f"fidelity set to {fidelity.spec()}")
        self._print(render_map_set(map_set, self._session.explorer.table))

    def _parallel(self, argument: str) -> None:
        """Show or switch the session's multi-core execution.

        ``parallel`` alone reports the current setting; ``parallel 4``
        (or a full spec like ``parallel:4:8``, or ``serial``)
        re-answers the whole breadcrumb under the new setting, so the
        drill-down position and history survive the switch.  Workers
        only change wall-clock; answers stay bit-identical for a given
        shard layout.
        """
        argument = argument.strip()
        if not argument:
            parallelism = self._session.explorer.config.parallelism
            self._print(f"parallel: {parallelism.spec()}")
            return
        setting: object = (
            int(argument) if argument.isdigit() else argument
        )
        map_set = self._session.reconfigure(parallelism=setting)
        parallelism = self._session.explorer.config.parallelism
        self._print(f"parallel set to {parallelism.spec()}")
        self._print(render_map_set(map_set, self._session.explorer.table))

    def _cluster(self, argument: str) -> None:
        """Attach shard servers, show the attached cluster, or detach.

        ``cluster http://host:8801 http://host:8802`` attaches a
        coordinator over the URLs and re-answers the breadcrumb with a
        ``cluster`` parallelism; ``cluster`` alone reports the attached
        servers; ``cluster off`` detaches (cluster configs then degrade
        to the local scan/merge split — same answers, one machine).
        """
        from repro.cluster import (
            active_cluster,
            attach_cluster,
            detach_cluster,
        )

        argument = argument.strip()
        if not argument:
            coordinator = active_cluster()
            if coordinator is None:
                self._print("no cluster attached")
            else:
                self._print(
                    "cluster: " + " ".join(coordinator.urls)
                )
            return
        if argument.lower() == "off":
            detached = detach_cluster()
            self._print(
                "cluster detached"
                if detached is not None else "no cluster attached"
            )
            return
        from repro.core.config import Parallelism

        coordinator = attach_cluster(argument.split())
        self._print(
            f"cluster attached: {coordinator.n_servers} shard server(s)"
        )
        map_set = self._session.reconfigure(
            parallelism=Parallelism.cluster()
        )
        parallelism = self._session.explorer.config.parallelism
        self._print(f"parallel set to {parallelism.spec()}")
        self._print(render_map_set(map_set, self._session.explorer.table))

    # ------------------------------------------------------------------ #
    # Streaming (`append` / `refresh` / `watch`)
    # ------------------------------------------------------------------ #

    def _append(self, argument: str) -> None:
        """Append literal rows: ``col=value, ...`` with ``;`` between rows.

        Columns omitted from a row get a missing value.  With ``watch``
        on, the breadcrumb is re-explored and the refreshed maps are
        printed; otherwise the current maps stay as-is (snapshots of
        the pre-append version) until ``refresh``.
        """
        rows = self._parse_rows(argument)
        table = self._session.append(rows)
        self._print(
            f"appended {len(next(iter(rows.values())))} row(s); "
            f"{table.name!r} is now version {table.version} "
            f"({table.n_rows} rows)"
        )
        if self._watch:
            self._print(
                render_map_set(self._session.refresh(), table)
            )

    def _parse_rows(self, argument: str) -> dict[str, list[object]]:
        """``Age=30, Sex=F; Age=41, Sex=M`` → columnar ``{name: values}``."""
        argument = argument.strip()
        if not argument:
            raise AtlasError(
                "append needs rows, e.g. `append Age=30, Sex=F`"
            )
        table = self._session.explorer.table
        parsed: list[dict[str, object]] = []
        for row_text in argument.split(";"):
            row: dict[str, object] = {}
            for pair in row_text.split(","):
                pair = pair.strip()
                if not pair:
                    continue
                column, eq, value = pair.partition("=")
                if not eq:
                    raise AtlasError(
                        f"append expects col=value pairs, got {pair!r}"
                    )
                row[column.strip()] = self._parse_value(value.strip())
            if row:
                parsed.append(row)
        if not parsed:
            raise AtlasError("append found no col=value pairs")
        unknown = {name for row in parsed for name in row} - set(
            table.column_names
        )
        if unknown:
            raise AtlasError(
                f"unknown column(s): {', '.join(sorted(unknown))}; "
                f"table has: {', '.join(table.column_names)}"
            )
        return {
            name: [row.get(name) for row in parsed]
            for name in table.column_names
        }

    @staticmethod
    def _parse_value(text: str) -> object:
        if not text:
            return None
        try:
            return float(text)
        except ValueError:
            return text

    def _tokens(self, argument: str) -> None:
        """Show a text column's heavy-hitter tokens.

        Under a sketch fidelity the counts come from the backend's
        Misra–Gries token summary (the same state the persistent store
        round-trips); under exact fidelity they are counted directly.
        Either way this is the vocabulary ``column: match '...'`` and
        ``contains '...'`` predicates select on.
        """
        from repro.dataset.column import CategoricalColumn
        from repro.query.predicate import tokenize_text

        name = argument.strip()
        if not name:
            raise AtlasError("tokens needs a column name, e.g. `tokens title`")
        table = self._session.explorer.table
        try:
            column = table.column(name)
        except AtlasError:
            raise AtlasError(
                f"unknown column {name!r}; table has: "
                f"{', '.join(table.column_names)}"
            ) from None
        if not isinstance(column, CategoricalColumn):
            raise AtlasError(f"column {name!r} is numeric; tokens need text")
        backend = self._session.explorer.context.stats()
        token_sketch = getattr(backend, "token_sketch", None)
        if token_sketch is not None:
            counts = token_sketch(name).heavy_hitters()
            provenance = "sketched from the statistics reservoir"
        else:
            import numpy as np

            label_counts = np.bincount(
                column.codes[column.codes >= 0],
                minlength=len(column.categories),
            )
            counts = {}
            for label, occurrences in zip(column.categories, label_counts):
                if not occurrences:
                    continue
                for token in tokenize_text(str(label)):
                    counts[token] = counts.get(token, 0) + int(occurrences)
            provenance = "exact"
        top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:12]
        if not top:
            self._print(f"no tokens in {name!r}")
            return
        width = max(len(token) for token, _ in top)
        lines = [f"top tokens of {name!r} ({provenance}):"]
        lines += [f"  {token.ljust(width)}  {count}" for token, count in top]
        self._print("\n".join(lines))

    # ------------------------------------------------------------------ #
    # Service bridge (`serve` / `connect` / `remote`)
    # ------------------------------------------------------------------ #

    def _serve(self, argument: str) -> None:
        """Expose this REPL's table through an exploration service."""
        from repro.service import ExplorationService, ServiceError, serve

        if self._server is not None:
            self._print(f"already serving at {self._server.url}")
            return
        word = argument.strip()
        if word and not word.isdigit():
            raise AtlasError(f"serve takes a port number, got {argument!r}")
        port = int(word) if word else 0
        table = self._session.explorer.table
        # Share the session's configuration so `remote` answers match
        # what the local loop shows for the same query.
        service = ExplorationService(config=self._session.explorer.config)
        service.register(table)
        try:
            self._server = serve(service, port=port)
        except ServiceError as error:
            service.close()
            raise AtlasError(f"cannot serve on port {port}: {error}") from error
        self._print(f"serving {table.name!r} at {self._server.url}")

    def _connect(self, argument: str) -> None:
        """Attach a client to a running exploration service."""
        from repro.service import ServiceClient

        url = argument.strip()
        if not url:
            raise AtlasError("connect needs a service URL")
        client = ServiceClient(url)
        client.health()
        tables = client.tables()
        self._client = client
        listing = ", ".join(tables) if tables else "(none)"
        self._print(f"connected to {url}; tables: {listing}")

    def _remote(self) -> None:
        """Answer the session's current query through the service."""
        if self._client is None:
            raise AtlasError("not connected; use 'connect <url>' first")
        table = self._session.explorer.table
        query = self._session.current.query
        # Ship the session's fidelity so the remote answer matches what
        # the local loop would show for the same query.
        fidelity = self._session.explorer.config.fidelity.spec()
        response = self._client.explore(table.name, query, fidelity=fidelity)
        provenance = "result cache" if response.cached else (
            f"computed in {response.elapsed:.3f}s"
        )
        self._print(f"remote answer ({provenance}):")
        self._print(render_map_set(response.map_set, table))

    def _region(self, index: int):
        regions = self._session.current_map.regions
        if not 0 <= index < len(regions):
            raise AtlasError(
                f"region index {index} out of range "
                f"(map has {len(regions)} regions)"
            )
        return regions[index]

    @staticmethod
    def _parse_index(argument: str) -> int:
        argument = argument.strip()
        if not argument.isdigit():
            raise AtlasError(f"drill needs a region number, got {argument!r}")
        return int(argument)

    def _print(self, text: str) -> None:
        self._stdout.write(text + "\n")


def run_script(
    table: Table,
    commands: list[str],
    initial_query: ConjunctiveQuery | str | None = None,
    config: AtlasConfig | None = None,
) -> str:
    """Run a canned command script and return the transcript."""
    stdin = io.StringIO("\n".join(commands) + "\n")
    stdout = io.StringIO()
    repl = ExplorerRepl(table, config=config, stdin=stdin, stdout=stdout)
    repl.run(initial_query)
    return stdout.getvalue()


def main(argv: list[str] | None = None) -> int:
    """Console entry point: ``atlas-explore data.csv [--query q.txt]``.

    Loads a CSV into the columnar substrate and starts the interactive
    exploration loop on it — the closest a terminal gets to Figure 6.
    """
    import argparse

    from repro.dataset.io_csv import read_csv

    parser = argparse.ArgumentParser(
        prog="atlas-explore",
        description="Explore a CSV file with Atlas data maps.",
    )
    parser.add_argument("csv", help="path to a CSV file with a header row")
    parser.add_argument(
        "--query",
        help="path to a query file in the paper's syntax "
             "(e.g. \"Age: [17, 90]\"); defaults to the whole table",
    )
    parser.add_argument(
        "--max-maps", type=int, default=None,
        help="cap on the number of maps per answer",
    )
    parser.add_argument(
        "--fidelity", default=None,
        help="execution fidelity: 'exact' (default) or "
             "'sketch[:rows[:epsilon]]' for bounded approximate answers",
    )
    parser.add_argument(
        "--parallel", default=None,
        help="multi-core execution: 'serial' (default), "
             "'parallel[:workers[:shards]]' (workers may be 'auto'), or "
             "'cluster[:servers[:shards]]' over --cluster shard servers; "
             "applies at sketch fidelity",
    )
    parser.add_argument(
        "--cluster", default=None, metavar="URLS",
        help="comma-separated shard-server URLs to attach "
             "(see `python -m repro.cluster`); combine with "
             "--parallel cluster",
    )
    arguments = parser.parse_args(argv)

    table = read_csv(arguments.csv)
    config = AtlasConfig()
    if arguments.max_maps is not None:
        config = config.replace(max_maps=arguments.max_maps)
    if arguments.fidelity is not None:
        config = config.replace(fidelity=arguments.fidelity)
    if arguments.parallel is not None:
        config = config.replace(parallelism=arguments.parallel)
    if arguments.cluster is not None:
        from repro.cluster import attach_cluster

        attach_cluster(
            [url for url in arguments.cluster.split(",") if url]
        )
        if arguments.parallel is None:
            config = config.replace(parallelism="cluster")

    initial_query: ConjunctiveQuery | None = None
    if arguments.query:
        with open(arguments.query) as handle:
            initial_query = parse_query(handle.read())

    ExplorerRepl(table, config=config).run(initial_query)
    return 0


if __name__ == "__main__":  # pragma: no cover - manual entry point
    raise SystemExit(main())
