"""ASCII rendering of maps and map sets: the Figure-6 GUI analogue.

The paper's prototype shows maps in a web GUI; the reproduction renders
the same information — region descriptions, covers as bars, ranking
scores — as terminal text, which keeps the interaction loop scriptable
and testable.
"""

from __future__ import annotations

from repro.core.datamap import DataMap
from repro.dataset.table import Table
from repro.engine.pipeline import MapSet

#: Width of the cover bar in characters.
BAR_WIDTH = 30


def cover_bar(cover: float, width: int = BAR_WIDTH) -> str:
    """Proportional bar, e.g. ``[#####.....] 48.2%``."""
    cover = min(max(cover, 0.0), 1.0)
    filled = round(cover * width)
    return f"[{'#' * filled}{'.' * (width - filled)}] {cover * 100:5.1f}%"


def render_map(data_map: DataMap, table: Table | None = None) -> str:
    """One map as a block of text; covers included when a table is given."""
    lines = [f"Map: {data_map.label}  ({data_map.n_regions} regions)"]
    covers = data_map.covers(table) if table is not None else None
    for index, region in enumerate(data_map.regions):
        description = " ∧ ".join(
            p.describe() for p in region.predicates if p.is_restrictive
        ) or "(everything)"
        lines.append(f"  ({index}) {description}")
        if covers is not None:
            lines.append(f"      {cover_bar(float(covers[index]))}")
    return "\n".join(lines)


def render_map_set(map_set: MapSet, table: Table | None = None) -> str:
    """A whole ranked answer, best map first."""
    if not map_set.ranked:
        return "No maps could be generated for this query."
    lines = [
        f"{len(map_set.ranked)} map(s) for query: "
        f"{map_set.query.describe_inline()}",
        f"(pipeline: {map_set.timings.total * 1000:.1f} ms over "
        f"{map_set.n_rows_used} rows)",
        "",
    ]
    for rank, entry in enumerate(map_set.ranked, start=1):
        lines.append(f"--- #{rank}  entropy={entry.score:.3f} ---")
        lines.append(render_map(entry.map, table))
        lines.append("")
    return "\n".join(lines).rstrip()


def render_examples(examples: Table, title: str = "examples") -> str:
    """A small table of example tuples, one row per line."""
    lines = [f"{title} ({examples.n_rows} rows):"]
    for row in examples.head(examples.n_rows):
        cells = ", ".join(
            f"{name}={_cell(value)}" for name, value in row.items()
        )
        lines.append(f"  {cells}")
    return "\n".join(lines)


def _cell(value: object) -> str:
    if value is None:
        return "∅"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def render_profile(profile) -> str:
    """Render a :class:`~repro.dataset.stats.TableProfile` as text.

    Shows each column's kind, distinct count, and — for excluded columns
    — the §5.2 guard's reason, which is the feedback a user needs when a
    column they expected is absent from the maps.
    """
    lines = [f"Profile of table {profile.table_name!r}:"]
    excluded = profile.excluded
    for summary in profile.summaries:
        marker = "  " if summary.name not in excluded else "✗ "
        detail = f"{summary.kind.value}, {summary.distinct} distinct"
        if summary.minimum is not None:
            detail += f", range [{summary.minimum:g}, {summary.maximum:g}]"
        if summary.n_missing:
            detail += f", {summary.missing_ratio * 100:.1f}% missing"
        lines.append(f"  {marker}{summary.name}: {detail}")
        if summary.name in excluded:
            lines.append(f"      excluded: {excluded[summary.name]}")
    return "\n".join(lines)


def render_breadcrumb(trail: list[str]) -> str:
    """The drill-down trail, root first."""
    if not trail:
        return "(root)"
    return "\n".join(
        f"{'  ' * depth}> {step}" for depth, step in enumerate(trail)
    )
