"""JSON schemas, canonical serialization, and the CLI exit-code contract."""

import json

import numpy as np
import pytest

from chdisc import QuadrangleConfig, polar_span, validate_quadrangle
from chdisc.cli import EXIT_FAIL, EXIT_INVALID, EXIT_PASS, _bend_tag, main
from chdisc.disc import F0, embed, triangle_vertices
from chdisc.io import (
    SchemaError,
    canonical_dumps,
    load_quadrangle,
    load_representation,
    quadrangle_to_json_dict,
    representation_to_json_dict,
    write_json,
)
from chdisc.representations import TurnoverSignature, fuchsian_turnover


def _baseline_quadrangle():
    z1, z2, z3 = triangle_vertices(np.pi / 3, np.pi / 3, np.pi / 4)
    z4 = z2 * np.exp(2j * np.pi / 3)
    return QuadrangleConfig(
        tuple(polar_span(embed(z), F0) for z in (z1, z2, z3, z4))
    )


# -- canonical serialization ---------------------------------------------------

def test_canonical_dumps_sorted_compact_newline():
    s = canonical_dumps({"b": 1, "a": [1.5, True]})
    assert s == '{"a":[1.5,true],"b":1}\n'
    with pytest.raises(ValueError):
        canonical_dumps({"x": float("nan")})


def test_quadrangle_roundtrip(tmp_path):
    q = _baseline_quadrangle()
    path = tmp_path / "quad.json"
    write_json(path, quadrangle_to_json_dict(q))
    loaded = load_quadrangle(path)
    for p, l in zip(q.polars, loaded.polars):
        assert p.is_parallel_to(l, tol=1e-12)


def test_quadrangle_schema_rejections(tmp_path):
    q = quadrangle_to_json_dict(_baseline_quadrangle())
    cases = {
        "unknown_field": dict(q, extra=1),
        "missing_field": {k: v for k, v in q.items() if k != "polars"},
        "wrong_format": dict(q, format="chdisc/999"),
        "wrong_kind": dict(q, kind="certificate"),
        "wrong_count": dict(q, polars=q["polars"][:3]),
        "bad_vector": dict(q, polars=[[[0, 0]]] * 4),
    }
    for name, doc in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            load_quadrangle(path)
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(SchemaError):
        load_quadrangle(broken)
    with pytest.raises(SchemaError):
        load_quadrangle(tmp_path / "does-not-exist.json")


def test_representation_roundtrip(tmp_path):
    rep, _ = fuchsian_turnover(TurnoverSignature(3, 3, 5))
    path = tmp_path / "rep.json"
    write_json(path, representation_to_json_dict(rep))
    loaded = load_representation(path)
    assert loaded.kind == rep.kind
    assert loaded.relations == rep.relations
    for name, g in rep.generators.items():
        assert np.allclose(loaded.generators[name].matrix, g.matrix, atol=1e-12)
    assert max(loaded.relation_residuals().values()) < 1e-9
    assert loaded.metadata["signature"] == [3, 3, 5]


# -- CLI: check-quadrangle ----------------------------------------------------

def test_cli_check_quadrangle_pass(tmp_path, capsys):
    path = tmp_path / "quad.json"
    write_json(path, quadrangle_to_json_dict(_baseline_quadrangle()))
    assert main(["check-quadrangle", str(path)]) == EXIT_PASS
    cert_path = tmp_path / "quad.cert.json"
    assert cert_path.exists()
    doc = json.loads(cert_path.read_text())
    assert doc["pass"] is True
    assert "pass=True" in capsys.readouterr().out


def test_cli_check_quadrangle_fail(tmp_path, capsys):
    q = _baseline_quadrangle()
    bad = QuadrangleConfig((q.polars[0],) + tuple(
        type(q.polars[0])(np.conj(p.v)) for p in q.polars[1:]
    ))
    # sanity: this clockwise-ified quadrangle really fails
    assert not validate_quadrangle(bad).passed
    path = tmp_path / "bad.json"
    write_json(path, quadrangle_to_json_dict(bad))
    assert main(["check-quadrangle", str(path)]) == EXIT_FAIL
    assert json.loads((tmp_path / "bad.cert.json").read_text())["pass"] is False


def test_cli_check_quadrangle_invalid_input(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{definitely not json")
    assert main(["check-quadrangle", str(path)]) == EXIT_INVALID
    assert "invalid input" in capsys.readouterr().err


@pytest.mark.parametrize("vector", [[["a", 0], [0, 0], [1, 0]], [[1, 0], [0], [1, 0]]],
                         ids=["string_entry", "ragged"])
def test_cli_check_quadrangle_malformed_vector_is_invalid_input(tmp_path, capsys, vector):
    doc = quadrangle_to_json_dict(_baseline_quadrangle())
    doc["polars"][1] = vector
    path = tmp_path / "quad.json"
    path.write_text(json.dumps(doc))
    assert main(["check-quadrangle", str(path)]) == EXIT_INVALID
    assert "invalid input:" in capsys.readouterr().err
    assert not (tmp_path / "quad.cert.json").exists()


def test_load_representation_rejects_a_malformed_generator(tmp_path):
    doc = representation_to_json_dict(fuchsian_turnover(TurnoverSignature(3, 3, 5))[0])
    for rows in ([[["a", 0]] * 3] * 3, [[[1, 0]] * 3, [[1, 0]] * 2, [[1, 0]] * 3]):
        doc["generators"]["g2"] = rows
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="'g2' must be a 3x3 matrix"):
            load_representation(path)


# -- CLI: gkl, figure ---------------------------------------------------------

def test_cli_gkl_table(capsys):
    assert main(["gkl", "--genus", "3"]) == EXIT_PASS
    out = capsys.readouterr().out
    assert "genus" in out and "identity" in out
    # every even |tau| up to 2g-2 = 4 appears, all rows OK
    assert out.count("OK") == 3
    assert "FAIL" not in out


def test_cli_gkl_invalid(capsys):
    assert main(["gkl", "--genus", "3", "--tau-abs", "3"]) == EXIT_INVALID
    assert main(["gkl", "--genus", "1"]) == EXIT_INVALID
    assert main(["gkl", "--genus", "3", "--tau-abs", "8"]) == EXIT_INVALID


def test_cli_figure(tmp_path, capsys):
    out = tmp_path / "fig.svg"
    rc = main(["figure", "--n", "3", "3", "4", "--draw", "polygon", "quadrangle",
               "--out", str(out)])
    assert rc == EXIT_PASS
    text = out.read_text()
    assert text.startswith('<?xml version="1.0"')
    assert "<svg" in text and text.count("<path") == 4
    assert text.count("C1") == 1 and "C4" in text


def test_cli_figure_invalid_signature(tmp_path, capsys):
    rc = main(["figure", "--n", "2", "2", "2", "--out", str(tmp_path / "f.svg")])
    assert rc == EXIT_INVALID


# -- CLI: turnover and scan ---------------------------------------------------

def test_cli_turnover_pipeline(tmp_path, capsys):
    rc = main(["turnover", "--n", "3", "3", "4", "--out", str(tmp_path),
               "--mesh", "0.2"])
    assert rc == EXIT_PASS
    tag = "turnover_3-3-4_bend0"
    for suffix in (".rep.json", ".quad.json", ".cert.json", ".report.json"):
        assert (tmp_path / f"{tag}{suffix}").exists()
    report = json.loads((tmp_path / f"{tag}.report.json").read_text())
    assert report["chi"] == "-1/12"
    assert report["toledo"]["snapped"] == "-1/12"
    assert report["euler"]["snapped"] == "-1/24"
    assert report["reliable"] is True
    assert report["residual_signed"] == 0.0
    cert = json.loads((tmp_path / f"{tag}.cert.json").read_text())
    assert cert["pass"] is True


def test_cli_turnover_invalid_signature(capsys):
    assert main(["turnover", "--n", "2", "2", "2"]) == EXIT_INVALID
    assert "invalid signature" in capsys.readouterr().err


def test_cli_scan_dedupes_and_summarizes(tmp_path, capsys):
    rc = main(["scan", "--n", "3", "3", "4", "--n", "3", "3", "4",
               "--bend", "0", "--out", str(tmp_path), "--mesh", "0.2"])
    assert rc == EXIT_PASS
    captured = capsys.readouterr()
    assert "duplicate grid point" in captured.err
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["kind"] == "scan_summary"
    assert len(summary["rows"]) == 1
    row = summary["rows"][0]
    assert row["converged"] is True and row["certificate_passed"] is True
    rep_doc = json.loads((tmp_path / "turnover_3-3-4_bend0.rep.json").read_text())
    assert row["worst_relation_residual"] == max(rep_doc["relation_residuals"].values())


def test_bend_tags_are_distinct_and_keep_the_short_ones():
    """An artifact name carries the bend's shortest round-trip digits, so
    the tag reads back as the bend and distinct bends never share a name;
    a bend with at most six decimals keeps its six-decimal tag."""
    assert _bend_tag(0.0300001) != _bend_tag(0.0300004)
    assert _bend_tag(1e-7) != _bend_tag(0.0)
    assert _bend_tag(-0.0) == _bend_tag(0.0) == "0"
    rng = np.random.default_rng(3)
    short = [0.0, 0.02, 0.1, -0.05, 1e-6, 0.123456, 0.04, 0.08, 1.0]
    short += [round(b, 6) for b in rng.uniform(-0.3, 0.3, 500)]
    for bend in short:
        six = f"{bend:.6f}".rstrip("0").rstrip(".")
        assert _bend_tag(bend) == six.replace("-", "m").replace(".", "p")
    for bend in rng.uniform(-0.3, 0.3, 500):
        assert float(_bend_tag(bend).replace("m", "-").replace("p", ".")) == bend


def test_cli_scan_reports_invalid_signature_rows(tmp_path, capsys):
    rc = main(["scan", "--n", "2", "2", "2", "--bend", "0",
               "--out", str(tmp_path)])
    assert rc == EXIT_PASS  # the scan completes; the row records the error
    summary = json.loads((tmp_path / "summary.json").read_text())
    row = summary["rows"][0]
    assert row["converged"] is False
    assert "invalid signature" in row["error"]
