"""Plain-text table rendering shared by every results printer.

:func:`render_table` lays out aligned ASCII tables (the paper tables'
formatters in :mod:`repro.experiments.paper_tables` and the figure,
ablation and CLI printers all use it), :func:`pct` and
:func:`format_rate_line` format rates, and the ``format_*`` views below
print the route-heterogeneity (inconsistency) sweep.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.outcomes import VerdictDistribution


def _rule(widths: Sequence[int]) -> str:
    return "-+-".join("-" * width for width in widths)


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[str]], title: str = ""
) -> str:
    """Render an aligned ASCII table."""
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(
        " | ".join(header.ljust(widths[i]) for i, header in enumerate(headers))
    )
    lines.append(_rule(widths))
    for row in rows:
        lines.append(
            " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def pct(value: float) -> str:
    return f"{value:.1f}%"


def format_rate_line(label: str, tally: VerdictDistribution) -> str:
    s, f1, f2 = tally.as_percentages()
    line = (
        f"{label:<42} success={s:5.1f}%  failure1={f1:5.1f}%  "
        f"failure2={f2:5.1f}%  (n={tally.trials})"
    )
    if tally.trials:
        # The Wilson 95 % band on the success rate.
        low, high = tally.wilson()
        line += f"  ci95=[{low * 100:.1f}%,{high * 100:.1f}%]"
    return line


def format_disagreement_matrix(
    matrix: Dict[str, Dict[str, str]],
    routes: Sequence[str],
) -> str:
    """Ensafi-style strategy × route verdict matrix; rows where the
    verdict set has more than one element are flagged with ``!=``."""
    headers = ["Strategy"] + [route.replace("route-vp-", "vp") for route in routes]
    headers.append("agree?")
    rows = []
    for strategy, verdicts in matrix.items():
        row = [strategy] + [verdicts.get(route, "-") for route in routes]
        row.append("yes" if len(set(verdicts.values())) <= 1 else "!=")
        rows.append(row)
    return render_table(
        headers, rows,
        "Per-route disagreement matrix (verdicts across vantage points)",
    )


def format_diurnal_curve(curve: Sequence[Dict]) -> str:
    headers = ["Hour", "Detections", "RSTs injected", "Suppressed", "Suppression"]
    rows = [
        [
            f"{point['hour']:g}h",
            str(point["detections"]),
            str(point["resets_injected"]),
            str(point["resets_suppressed"]),
            pct(point["suppression_rate"] * 100),
        ]
        for point in curve
    ]
    return render_table(headers, rows, "Diurnal reset suppression (all routes pooled)")


def format_churn_timeline(timeline: Sequence[Dict]) -> str:
    headers = ["Hour", "Blacklist adds", "TTL expirations"]
    rows = [
        [
            f"{point['hour']:g}h",
            str(point["blacklist_adds"]),
            str(point["ttl_expirations"]),
        ]
        for point in timeline
    ]
    return render_table(
        headers, rows, "Blacklist churn (adds / TTL expirations per hour)"
    )
