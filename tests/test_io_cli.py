"""JSON schemas, canonical serialization, and the CLI exit-code contract."""

import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest

from chdisc import Isometry, InvalidSolutionError, QuadrangleConfig, polar_span, validate_quadrangle
from chdisc import cli as cli_module
from chdisc.cli import EXIT_FAIL, EXIT_INVALID, EXIT_PASS, _bend_tag, _refinement_for, main, run_turnover
from chdisc.disc import F0, embed, triangle_vertices
from chdisc import invariants as invariants_module
from chdisc import io as io_module
from chdisc import quadrangle as quadrangle_module
from chdisc.io import (
    SchemaError,
    _f,
    _vector,
    canonical_dumps,
    load_quadrangle,
    quadrangle_to_json_dict,
    representation_to_json_dict,
    write_json,
)
from chdisc.invariants import invariant_report
from chdisc.meshes import turnover_section_mesh
from chdisc.representations import Representation, TurnoverSignature, fuchsian_turnover, turnover_solve
from chdisc.tolerances import TOL, Tolerances

from oracles import mesh_json, stored_point


def _baseline_quadrangle():
    z1, z2, z3 = triangle_vertices(np.pi / 3, np.pi / 3, np.pi / 4)
    z4 = z2 * np.exp(2j * np.pi / 3)
    return QuadrangleConfig(
        tuple(polar_span(embed(z), F0) for z in (z1, z2, z3, z4))
    )


# -- canonical serialization ---------------------------------------------------

def test_canonical_dumps_sorted_compact_newline():
    """Sorted keys, compact separators and a newline: the bytes of the
    reference json.dumps call on each kind of chdisc/1 document, and no NaN
    or infinity."""
    s = canonical_dumps({"b": 1, "a": [1.5, True]})
    assert s == '{"a":[1.5,true],"b":1}\n'
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            canonical_dumps({"x": bad})
        with pytest.raises(ValueError):
            canonical_dumps([0.5, {"y": [bad]}])
    rep, config = fuchsian_turnover(TurnoverSignature(3, 3, 4))
    mesh = turnover_section_mesh(3, 3, 4, 4)
    docs = [
        validate_quadrangle(_baseline_quadrangle()).to_json_dict(),
        invariant_report(Fraction(-1, 12), -1.0 / 12.0 + 1e-9, -1.0 / 24.0 - 1e-9, 24).to_json_dict(),
        representation_to_json_dict(rep),
        quadrangle_to_json_dict(config.config),
        mesh_json(mesh),
    ]
    for doc in docs:
        want = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
        assert canonical_dumps(doc) == want


def test_quadrangle_roundtrip(tmp_path):
    q = _baseline_quadrangle()
    path = tmp_path / "quad.json"
    write_json(path, quadrangle_to_json_dict(q))
    loaded = load_quadrangle(path)
    for p, l in zip(q.polars, loaded.polars):
        assert p.is_parallel_to(l, tol=1e-12)


def test_stacked_read_back_has_the_bits_of_one_stored_point_per_polar(tmp_path):
    """The scan's four quadrangles, a bent one, and polars scaled by 2 (with
    int zeros) or nudged off unit by rounding, read back bit for bit as one
    ``stored_point`` per polar reads them: both branches of the unit test."""
    quads = [fuchsian_turnover(TurnoverSignature(*s))[1].config
             for s in [(3, 3, 4), (3, 3, 5), (3, 4, 4), (2, 3, 7)]]
    quads.append(turnover_solve(TurnoverSignature(3, 3, 4), 0.1)[1].config)
    docs = [quadrangle_to_json_dict(q) for q in quads]
    scaled = [[[2.0 * x or 0, 2.0 * y or 0] for x, y in v] for v in docs[0]["polars"]]
    nudged = [[[x * (1 + 3e-16), y] for x, y in v] for v in docs[1]["polars"]]
    docs += [dict(docs[0], polars=scaled), dict(docs[1], polars=nudged)]
    for k, doc in enumerate(docs):
        path = tmp_path / f"q{k}.quad.json"
        path.write_text(json.dumps(doc))
        loaded = load_quadrangle(path)
        for got, rows in zip(loaded.polars, doc["polars"]):
            assert got.v.tobytes() == stored_point(_vector(rows)).v.tobytes()


def test_quadrangle_schema_rejections(tmp_path):
    q = quadrangle_to_json_dict(_baseline_quadrangle())
    cases = {
        "unknown_field": dict(q, extra=1),
        "missing_field": {k: v for k, v in q.items() if k != "polars"},
        "wrong_format": dict(q, format="chdisc/999"),
        "wrong_kind": dict(q, kind="certificate"),
        "wrong_count": dict(q, polars=q["polars"][:3]),
        "bad_vector": dict(q, polars=[[[0, 0]]] * 4),
        "zero_vector": dict(q, polars=q["polars"][:3] + [[[0, 0]] * 3]),
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
    """A written representation reads back to isometries that keep its
    relations."""
    rep, _ = fuchsian_turnover(TurnoverSignature(3, 3, 5))
    path = tmp_path / "rep.json"
    write_json(path, representation_to_json_dict(rep))
    doc = json.loads(path.read_text())
    gens = {name: Isometry.from_matrix(np.array(rows)[..., 0] + 1j * np.array(rows)[..., 1])
            for name, rows in doc["generators"].items()}
    loaded = Representation(doc["rep_kind"], gens, doc["relations"], doc["metadata"])
    assert loaded.kind == rep.kind
    assert loaded.relations == rep.relations
    for name, g in rep.generators.items():
        assert np.allclose(loaded.generators[name].matrix, g.matrix, atol=1e-12)
    assert max(loaded.relation_residuals().values()) < 1e-9
    assert loaded.metadata["signature"] == [3, 3, 5]


def test_representation_metadata_of_an_unknown_type_is_refused():
    """Metadata is written only in the JSON forms chdisc/1 defines: a value
    of any other type raises TypeError naming it, instead of being written
    as its str."""
    rep, _ = fuchsian_turnover(TurnoverSignature(3, 3, 5))
    for value in (np.arange(3), {1, 2}, Fraction(1, 2)):
        bad = Representation(rep.kind, rep.generators, rep.relations,
                             {**rep.metadata, "solver_log": [{"extra": value}]})
        with pytest.raises(TypeError, match=type(value).__name__):
            representation_to_json_dict(bad)


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


def _as_strings(rows):
    return [[str(x) for x in pair] for pair in rows]


@pytest.mark.parametrize(
    "vector",
    [[["a", 0], [0, 0], [1, 0]], [[1, 0], [0], [1, 0]], "numeric_strings",
     [[True, 0], [0, 0], [1, 0]], [[1, 0], [0, None], [1, 0]], [[1, 0], [0, 10 ** 400], [1, 0]]],
    ids=["string_entry", "ragged", "numeric_strings", "boolean_entry", "null_entry", "huge_int"])
def test_cli_check_quadrangle_malformed_vector_is_invalid_input(tmp_path, capsys, vector):
    doc = quadrangle_to_json_dict(_baseline_quadrangle())
    # chdisc/1 numbers are JSON numbers: the second polar written as the
    # strings of its own values is no valid quadrangle
    doc["polars"][1] = _as_strings(doc["polars"][1]) if vector == "numeric_strings" else vector
    path = tmp_path / "quad.json"
    path.write_text(json.dumps(doc))
    assert main(["check-quadrangle", str(path)]) == EXIT_INVALID
    assert "invalid input:" in capsys.readouterr().err
    assert not (tmp_path / "quad.cert.json").exists()


@pytest.mark.parametrize("sig", [(3, 3, 4), (3, 3, 5), (3, 4, 4), (2, 3, 7)],
                         ids=lambda sig: "-".join(map(str, sig)))
def test_certificate_is_a_function_of_its_quadrangle_file(tmp_path, sig):
    """check-quadrangle reproduces the certificate of the quadrangle the scan
    wrote: loading keeps the bits of a stored unit representative."""
    _, quad = fuchsian_turnover(TurnoverSignature(*sig))
    path = tmp_path / "quad.json"
    write_json(path, quadrangle_to_json_dict(quad.config))
    loaded = load_quadrangle(path)
    assert [p.v.tobytes() for p in loaded.polars] == [p.v.tobytes() for p in quad.config.polars]
    assert canonical_dumps(validate_quadrangle(loaded).to_json_dict()) == \
        canonical_dumps(quad.certificate.to_json_dict())


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


@pytest.mark.parametrize("command", ["turnover", "scan"])
@pytest.mark.parametrize("flags, message", [
    (["--mesh", "0"], "--mesh must be a positive finite edge length, got 0.0"),
    (["--mesh", "nan"], "--mesh must be a positive finite edge length, got nan"),
    (["--mesh", "-1"], "--mesh must be a positive finite edge length, got -1.0"),
    (["--mesh", "inf"], "--mesh must be a positive finite edge length, got inf"),
    (["--bend", "nan"], "--bend must be finite, got nan"),
])
def test_cli_rejects_mesh_lengths_and_bends_it_cannot_run(tmp_path, capsys, command, flags, message):
    """A zero, NaN, negative or infinite --mesh and a NaN --bend are invalid
    input (exit 3), not a traceback or a silently clipped refinement; no
    artifact is written."""
    out = tmp_path / "out"
    assert main([command, "--n", "3", "3", "4", *flags, "--out", str(out)]) == EXIT_INVALID
    assert capsys.readouterr().err == f"invalid input: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["turnover", "scan", "check-quadrangle"])
@pytest.mark.parametrize("tol, shown", [("nan", "nan"), ("inf", "inf"), ("-inf", "-inf"), ("-1", "-1.0")])
def test_cli_rejects_a_tol_that_is_not_a_finite_margin(tmp_path, capsys, command, tol, shown):
    """A NaN, infinite or negative --tol is invalid input (exit 3) before
    anything is written: NaN and infinity used to end in a JSON traceback
    after the representation and quadrangle were written, and -1 passed
    every strict inequality by a slack it does not have."""
    out = tmp_path / "out"
    if command == "check-quadrangle":
        path = tmp_path / "quad.json"
        write_json(path, quadrangle_to_json_dict(_baseline_quadrangle()))
        argv = [command, str(path), "--out", str(out)]
    else:
        argv = [command, "--n", "3", "3", "4", "--out", str(out)]
    assert main([*argv, f"--tol={tol}"]) == EXIT_INVALID
    assert capsys.readouterr().err == f"invalid input: --tol must be a finite strict margin >= 0, got {shown}\n"
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == (["quad.json"] if command == "check-quadrangle" else [])


def test_cli_takes_a_zero_tol(tmp_path, capsys):
    path = tmp_path / "quad.json"
    write_json(path, quadrangle_to_json_dict(_baseline_quadrangle()))
    assert main(["check-quadrangle", str(path), "--tol", "0"]) == EXIT_PASS
    assert json.loads((tmp_path / "quad.cert.json").read_text())["tolerances"]["strict_margin"] == 0.0


@dataclasses.dataclass(frozen=True)
class _WithASolverField(Tolerances):
    #: a field that only a solver would read
    solver_window: float = 0.98


def test_a_tolerance_no_certificate_or_report_reads_changes_none_of_their_bytes(tmp_path):
    """A report records only the four fields the invariants path reads, and
    a certificate only the five K1-K3 read: a new field changes neither."""
    for out, tol in ((tmp_path / "a", TOL), (tmp_path / "b", _WithASolverField())):
        for bend in (0.0, 0.1):
            run_turnover(TurnoverSignature(3, 3, 4), bend, 0, 0.2, out, tol=tol)
    for tag in ("turnover_3-3-4_bend0", "turnover_3-3-4_bend0p1"):
        for suffix in (".report.json", ".cert.json"):
            assert (tmp_path / "a" / f"{tag}{suffix}").read_bytes() == (tmp_path / "b" / f"{tag}{suffix}").read_bytes()
        report = json.loads((tmp_path / "a" / f"{tag}.report.json").read_text())
        assert sorted(report["tolerances"]) == ["fixed_point", "null_band", "orthogonality", "snap"]


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


def test_a_solver_failure_keeps_its_residual_out_of_the_scan_summary(tmp_path, capsys, monkeypatch):
    """``chdisc turnover`` prints the failure's message and, on its own
    stderr line, the residual; the scan summary's ``error`` is the message
    alone, whose digits do not follow the BLAS kernel."""
    message = ("solver converged (g2-order residual within 1e-09, twists (0, 0)) but no "
               "stable-geodesic choice passes K1 and K2")

    def failing(*args, **kwargs):
        raise InvalidSolutionError(message, residual=4.87e-14)

    monkeypatch.setattr(cli_module, "turnover_solve", failing)
    assert main(["turnover", "--n", "2", "3", "7", "--bend", "0.02", "--out", str(tmp_path)]) == EXIT_FAIL
    assert capsys.readouterr().err == f"solver failed: {message}\ng2-order residual 4.87e-14\n"
    assert main(["scan", "--n", "2", "3", "7", "--bend", "0.02", "--out", str(tmp_path)]) == EXIT_PASS
    assert json.loads((tmp_path / "summary.json").read_text())["rows"] == [
        {"signature": [2, 3, 7], "bend": 0.02, "converged": False, "certificate_passed": None,
         "worst_relation_residual": None, "error": message}]


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


def _f_through_17_digits(x):
    """The number writer as it was: every float through %.17g and back."""
    if isinstance(x, bool) or isinstance(x, int):
        return x
    return float(f"{float(x):.17g}")


def test_number_writer_keeps_every_float_bit_for_bit():
    """17 significant digits round-trip every double, so the %.17g pass
    returned each float unchanged; ``float(x)`` is the same map."""
    rng = np.random.default_rng(11)
    tiny = np.finfo(float).tiny
    special = [0.0, -0.0, 5e-324, -5e-324, tiny / 3, -tiny / 7, tiny, 1e308, -1e308,
               np.finfo(float).max, -np.finfo(float).max, 1.0, -1.0, 0.1, 1 / 3]
    bits = rng.integers(0, 2 ** 63, size=20000, dtype=np.int64)
    randoms = [v for v in bits.view(float) if np.isfinite(v)]
    randoms += list(rng.normal(size=2000) * 10.0 ** rng.integers(-300, 300, size=2000))
    for x in special + randoms:
        for value in (x, np.float64(x), -x):
            got = _f(value)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(value).tobytes()
            assert got == _f_through_17_digits(value) or np.isnan(got)
    for value in (True, False, 0, -3, 2 ** 70):
        assert _f(value) is value


def test_scan_artifacts_are_unchanged_by_the_number_writer(tmp_path, monkeypatch):
    args = ["scan", "--n", "3", "3", "4", "--n", "2", "3", "7", "--bend", "0", "--mesh", "0.2"]
    assert main(args + ["--out", str(tmp_path / "now")]) == EXIT_PASS
    for module in (io_module, invariants_module, quadrangle_module):
        monkeypatch.setattr(module, "_f", _f_through_17_digits)
    assert main(args + ["--out", str(tmp_path / "then")]) == EXIT_PASS
    names = sorted(p.name for p in (tmp_path / "now").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "then").iterdir())
    assert any(n.endswith(".cert.json") for n in names)
    for name in names:
        assert (tmp_path / "now" / name).read_bytes() == (tmp_path / "then" / name).read_bytes()


@pytest.mark.parametrize("h, refinements", [(0.05, [9, 12, 14, 7]), (0.02, [22, 24, 24, 16])])
def test_mesh_step_gives_the_scan_signatures_their_refinements(h, refinements):
    """--mesh h is the mean step along the turnover triangle's longest
    side: the refinements of the four scan signatures at the default 0.05
    and at 0.02, as the arclength lattice had them."""
    sigs = [(3, 3, 4), (3, 3, 5), (3, 4, 4), (2, 3, 7)]
    assert [_refinement_for(TurnoverSignature(*sig), h) for sig in sigs] == refinements


def test_a_refinement_outside_its_range_is_noted_on_stderr(capsys, tmp_path):
    """--mesh asks a refinement by mean step; one outside [2, 24] is moved
    into it with a one-line note naming both, and one inside gets none."""
    sig = TurnoverSignature(3, 4, 4)
    assert _refinement_for(sig, 0.02) == 24
    assert capsys.readouterr().err == (
        "note: --mesh 0.02 asks refinement 33 for (3, 4, 4); using 24, the nearest in [2, 24]\n")
    assert _refinement_for(sig, 0.05) == 14
    assert capsys.readouterr().err == ""
    assert main(["turnover", "--n", "3", "4", "4", "--mesh", "5", "--out", str(tmp_path)]) == EXIT_PASS
    assert capsys.readouterr().err == (
        "note: --mesh 5.0 asks refinement 1 for (3, 4, 4); using 2, the nearest in [2, 24]\n")
