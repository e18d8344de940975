import math

import pytest

from parconv.metrics import CSV_COLUMNS, MetricsRecord, emit_csv, emit_svg, read_csv


def record(update, epoch=1, loss=1.0, test_error=None, sim=0.0, wall=0.0, ledger=0):
    return MetricsRecord(update, epoch, loss, test_error, sim, wall, ledger)


def test_empty_records_header_only(tmp_path):
    path = tmp_path / "m.csv"
    emit_csv([], path)
    assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_csv_round_trip(tmp_path):
    records = [
        record(1, loss=2.302585092994046, sim=0.5, ledger=123),
        record(2, test_error=0.25, sim=1.0, ledger=456),
    ]
    path = tmp_path / "m.csv"
    emit_csv(records, path)
    assert read_csv(path) == records
    text = path.read_text().splitlines()
    assert text[1] == "1,1,2.302585092994046,,0.5,0.0,123"
    assert text[2] == "2,1,1.0,0.25,1.0,0.0,456"
    for bad in ("", "update,epoch\n"):
        path.write_text(bad)
        with pytest.raises(ValueError, match="unexpected metrics CSV header"):
            read_csv(path)


def test_csv_byte_deterministic(tmp_path):
    records = [record(i, loss=1.0 / (i + 1)) for i in range(1, 20)]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(records, a)
    emit_csv(records, b)
    assert a.read_bytes() == b.read_bytes()


def test_svg_byte_deterministic_and_well_formed(tmp_path):
    records = [record(i, loss=1.0 / i, test_error=0.5 / i if i % 3 == 0 else None, sim=0.1 * i)
               for i in range(1, 31)]
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_svg({"run": records}, "updates", a, y_field="train_loss")
    emit_svg({"run": records}, "updates", b, y_field="train_loss")
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.startswith("<svg ")
    assert text.rstrip().endswith("</svg>")
    assert text.count("<polyline") == 1
    assert "weight updates" in text and "training loss" in text


def test_svg_multi_series_overlay(tmp_path):
    series = {
        "d1xm1": [record(i, loss=1.0 / i) for i in range(1, 11)],
        "d2xm2": [record(i, loss=1.0 / i) for i in range(1, 11)],
    }
    path = tmp_path / "overlay.svg"
    emit_svg(series, "updates", path)
    text = path.read_text()
    assert text.count("<polyline") == 2
    assert "d1xm1" in text and "d2xm2" in text
    # identical series plot identical pixel paths
    import re

    paths = re.findall(r'points="([^"]+)"', text)
    assert paths[0] == paths[1]


def test_svg_skips_missing_y_values(tmp_path):
    """A missing or non-finite y value (a diverged run's loss) is skipped: the
    chart is the one drawn without its record, its axes span the finite points."""
    cases = {
        "test_error": [record(1), record(2, test_error=0.5), record(3), record(4, test_error=0.25)],
        "train_loss": [record(1, loss=2.0), record(2, loss=math.nan), record(3, loss=math.inf),
                       record(4, loss=0.5), record(5, loss=-math.inf)],
    }
    for y_field, records in cases.items():
        kept = [r for r in records
                if getattr(r, y_field) is not None and math.isfinite(getattr(r, y_field))]
        assert len(kept) == 2
        emit_svg({"run": records}, "updates", tmp_path / "all.svg", y_field=y_field)
        emit_svg({"run": kept}, "updates", tmp_path / "kept.svg", y_field=y_field)
        text = (tmp_path / "all.svg").read_text()
        assert text == (tmp_path / "kept.svg").read_text()
        assert text.count("<polyline") == 1
        assert "nan" not in text and "inf" not in text


def test_axis_and_field_validation(tmp_path):
    with pytest.raises(ValueError, match="x axis"):
        emit_svg([record(1)], "bogus", tmp_path / "x.svg")
    with pytest.raises(ValueError, match="y field"):
        emit_svg([record(1)], "updates", tmp_path / "x.svg", y_field="nope")
