"""Run metrics: per-update records, CSV emission, and a static SVG plotter.

Both emitters are byte-deterministic for identical inputs: floats are
rendered with repr (shortest round-trip form) in the CSV and with fixed
precision in the SVG, and no timestamps or environment details are written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

CSV_COLUMNS = (
    "update",
    "epoch",
    "train_loss",
    "test_error",
    "sim_seconds",
    "wall_seconds",
    "ledger_bytes",
)

_PALETTE = ("#1f6fb2", "#d1495b", "#3a8f5d", "#8b5fbf", "#c98a1e", "#3b3b3b")

X_AXES = {"updates": "weight updates", "sim_time": "simulated seconds"}
Y_FIELDS = {"train_loss": "training loss", "test_error": "test error rate"}


@dataclass(frozen=True)
class MetricsRecord:
    """One synchronous update. test_error is filled on each epoch's last update."""

    update: int
    epoch: int
    train_loss: float
    test_error: float | None
    sim_seconds: float
    wall_seconds: float
    ledger_bytes: int


def emit_csv(records, path) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for r in records:
        lines.append(
            ",".join(
                (
                    str(r.update),
                    str(r.epoch),
                    repr(float(r.train_loss)),
                    "" if r.test_error is None else repr(float(r.test_error)),
                    repr(float(r.sim_seconds)),
                    repr(float(r.wall_seconds)),
                    str(r.ledger_bytes),
                )
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_csv(path) -> list[MetricsRecord]:
    text = Path(path).read_text(encoding="utf-8").splitlines()
    if not text or text[0] != ",".join(CSV_COLUMNS):
        raise ValueError(f"{path}: unexpected metrics CSV header")
    out = []
    for line in text[1:]:
        u, e, loss, terr, sim, wall, led = line.split(",")
        out.append(
            MetricsRecord(
                update=int(u),
                epoch=int(e),
                train_loss=float(loss),
                test_error=None if terr == "" else float(terr),
                sim_seconds=float(sim),
                wall_seconds=float(wall),
                ledger_bytes=int(led),
            )
        )
    return out


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


def emit_svg(series, x_axis: str, path, y_field: str = "train_loss") -> None:
    """Self-contained line chart; one polyline per input series.

    `series` maps label -> record list. Records without the requested y value
    (e.g. test_error between evaluations) or with a non-finite one (a diverged
    run's loss) are skipped, so the axes span the finite points only.
    """
    if x_axis not in X_AXES:
        raise ValueError(f"unknown x axis {x_axis!r} (choose from {sorted(X_AXES)})")
    if y_field not in Y_FIELDS:
        raise ValueError(f"unknown y field {y_field!r} (choose from {sorted(Y_FIELDS)})")

    width, height = 800, 500
    ml, mr, mt, mb = 70, 20, 30, 55
    plot_w, plot_h = width - ml - mr, height - mt - mb

    points: dict[str, list[tuple[float, float]]] = {}
    for label, records in series.items():
        pts = []
        for r in records:
            y = getattr(r, y_field)
            if y is None or not math.isfinite(y):
                continue
            x = float(r.update) if x_axis == "updates" else r.sim_seconds
            pts.append((x, float(y)))
        points[label] = pts

    xs = [p[0] for pts in points.values() for p in pts]
    ys = [p[1] for pts in points.values() for p in pts]
    x_lo, x_hi = (min(xs), max(xs)) if xs else (0.0, 1.0)
    y_lo, y_hi = (min(ys), max(ys)) if ys else (0.0, 1.0)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x: float) -> float:
        return ml + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return mt + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#888" stroke-width="1"/>',
    ]
    for tick in _ticks(x_lo, x_hi):
        px = sx(tick)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{mt + plot_h}" x2="{_fmt(px)}" '
            f'y2="{mt + plot_h + 5}" stroke="#888"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{mt + plot_h + 20}" font-size="11" '
            f'text-anchor="middle" font-family="monospace">{tick:.6g}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        py = sy(tick)
        parts.append(
            f'<line x1="{ml - 5}" y1="{_fmt(py)}" x2="{ml}" y2="{_fmt(py)}" stroke="#888"/>'
        )
        parts.append(
            f'<text x="{ml - 8}" y="{_fmt(py + 4)}" font-size="11" '
            f'text-anchor="end" font-family="monospace">{tick:.6g}</text>'
        )
    parts.append(
        f'<text x="{ml + plot_w / 2:.1f}" y="{height - 12}" font-size="13" '
        f'text-anchor="middle" font-family="monospace">{X_AXES[x_axis]}</text>'
    )
    parts.append(
        f'<text x="16" y="{mt + plot_h / 2:.1f}" font-size="13" text-anchor="middle" '
        f'font-family="monospace" transform="rotate(-90 16 {mt + plot_h / 2:.1f})">'
        f"{Y_FIELDS[y_field]}</text>"
    )
    for k, (label, pts) in enumerate(points.items()):
        color = _PALETTE[k % len(_PALETTE)]
        if pts:
            coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        ly = mt + 16 + 16 * k
        parts.append(
            f'<line x1="{ml + 10}" y1="{ly - 4}" x2="{ml + 34}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{ml + 40}" y="{ly}" font-size="12" font-family="monospace">{label}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
