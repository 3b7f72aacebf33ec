"""Plain-text table rendering for the benchmark harness.

Each ``format_*`` function prints rows in the same shape as the paper's
tables so a reproduction run can be eyeballed against the originals.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.experiments.outcomes import VerdictDistribution

if TYPE_CHECKING:  # rendering runs no trial
    from repro.experiments.runner import PerVantageRates


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


def format_table1(
    results: List[Tuple[str, str, VerdictDistribution, VerdictDistribution]],
) -> str:
    """``results``: (strategy label, discrepancy, with-kw, without-kw)."""
    headers = [
        "Strategy", "Discrepancy",
        "Success", "Failure 1", "Failure 2",
        "Success (benign)", "Failure 1 (benign)",
    ]
    rows = []
    for label, discrepancy, with_kw, without_kw in results:
        s, f1, f2 = with_kw.as_percentages()
        bs, bf1, _bf2 = without_kw.as_percentages()
        rows.append(
            [label, discrepancy, pct(s), pct(f1), pct(f2), pct(bs), pct(bf1 + _bf2)]
        )
    return render_table(headers, rows, "Table 1: existing evasion strategies")


def format_table2(reports) -> str:
    headers = ["Vantage point", "IP fragments", "Wrong checksum", "No TCP flag", "RST", "FIN"]
    rows = [report.row() for report in reports]
    return render_table(headers, rows, "Table 2: client-side middlebox behaviors")


def format_table3(rows: List[Sequence[str]]) -> str:
    headers = ["TCP state", "GFW state", "TCP flags", "Condition"]
    return render_table(
        headers, [list(row) for row in rows], "Table 3: candidate insertion packets"
    )


def format_table4(
    results: List[Tuple[str, PerVantageRates]],
    title: str = "Table 4: success rate of new strategies",
) -> str:
    headers = [
        "Strategy",
        "Succ min", "Succ max", "Succ avg",
        "F1 min", "F1 max", "F1 avg",
        "F2 min", "F2 max", "F2 avg",
    ]
    rows = []
    for label, per_vantage in results:
        s_min, s_max, s_avg = per_vantage.success_min_max_avg()
        f1_min, f1_max, f1_avg = per_vantage.failure1_min_max_avg()
        f2_min, f2_max, f2_avg = per_vantage.failure2_min_max_avg()
        rows.append([
            label,
            pct(s_min), pct(s_max), pct(s_avg),
            pct(f1_min), pct(f1_max), pct(f1_avg),
            pct(f2_min), pct(f2_max), pct(f2_avg),
        ])
    return render_table(headers, rows, title)


def format_table5(preferences: Dict[str, Sequence[str]]) -> str:
    all_vehicles = ["ttl", "md5", "bad-ack", "old-timestamp"]
    headers = ["Packet type"] + ["TTL", "MD5", "Bad ACK", "Timestamp"]
    rows = []
    for packet_type, vehicles in preferences.items():
        marks = ["x" if vehicle in vehicles else "" for vehicle in all_vehicles]
        rows.append([packet_type] + marks)
    return render_table(
        headers, rows, "Table 5: preferred construction of insertion packets"
    )


def format_table6(results: List[Tuple[str, str, float, float]]) -> str:
    headers = ["DNS resolver", "IP", "except Tianjin", "All"]
    rows = [
        [name, ip, pct(ex_tj * 100), pct(all_rate * 100)]
        for name, ip, ex_tj, all_rate in results
    ]
    return render_table(headers, rows, "Table 6: TCP DNS censorship evasion")


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
