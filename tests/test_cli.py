import hashlib
import json
import warnings

import pytest

from cgm import cli
from cgm.axioms import Failure, SoundnessReport, soundness_suite
from cgm.cli import (EXIT_BOUNDARY, EXIT_CAP, EXIT_NOT_EQUIVALENT,
                     EXIT_NO_MATCH, EXIT_OK, EXIT_PARSE, main)
from cgm.dsl import parse
from cgm.semantics import bits_to_str, evaluate, sample_many, str_to_bits

MIXTURE = """# p-mixture of N(3,1) and N(0,4)
let n31 = (stdnormal * one) ; (id(R) * scal(3)) ; add in
let n04 = stdnormal ; scal(2) in
flip(3/10) * (n31 * n04) ; ite
"""


@pytest.fixture
def mixture_file(tmp_path):
    path = tmp_path / "mixture.cgm"
    path.write_text(MIXTURE)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_json_table(self, mixture_file, capsys):
        code, out, _ = run(capsys, "eval", mixture_file, "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        weights = sorted(c["weight"]
                         for c in payload["table"][0]["components"])
        assert weights == ["3/10", "7/10"]

    def test_parse_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.cgm"
        bad.write_text("flip(1/2) ; ; not")
        code, _, err = run(capsys, "eval", str(bad))
        assert code == EXIT_PARSE
        assert f"{bad}:1:13" in err

    def test_type_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.cgm"
        bad.write_text("and ; add")
        code, _, err = run(capsys, "eval", str(bad))
        assert code == EXIT_PARSE
        assert "type error" in err

    def test_zero_denominator_exit(self, tmp_path, capsys):
        path = tmp_path / "z.cgm"
        path.write_text("stdnormal ;\n  scal(1/0)")
        code, out, err = run(capsys, "eval", str(path))
        assert (code, out) == (EXIT_PARSE, "")
        assert err == f"{path}:2:8: parse error: zero denominator in '1/0'\n"

    def test_bad_number_exit(self, tmp_path, capsys):
        path = tmp_path / "x.cgm"
        path.write_text("flip(x)")
        code, out, err = run(capsys, "eval", str(path))
        assert (code, out) == (EXIT_PARSE, "")
        assert err == f"{path}:1:6: parse error: expected a number, found 'x'\n"

    def test_non_finite_literal_exit(self, tmp_path, capsys):
        bad = tmp_path / "huge.cgm"
        bad.write_text("stdnormal ; scal(1e400)")
        code, out, err = run(capsys, "eval", str(bad))
        assert code == EXIT_PARSE and out == ""
        assert "scal(inf) is not finite" in err

    def test_float_overflow_exit(self, tmp_path, capsys):
        huge = tmp_path / "overflow.cgm"
        huge.write_text("stdnormal ; scal(1e300) ; scal(1e300) ; scal(0.0)")
        code, out, err = run(capsys, "eval", str(huge))
        assert (code, out) == (EXIT_PARSE, "")
        assert err == "error: float arithmetic gave inf: a value left the float range\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_gram_overflow_exit(self, tmp_path, capsys, fmt):
        # The factor 1e200 is finite, its covariance 1e400 is not: printing
        # the kernel fails, with nothing on stdout, and drawing does not.
        path = tmp_path / "wide.cgm"
        path.write_text("stdnormal ; scal(1e200)")
        code, out, err = run(capsys, "eval", str(path), "--format", fmt)
        assert (code, out) == (EXIT_PARSE, "")
        assert err == "error: float arithmetic gave inf: a value left the float range\n"
        code, out, _ = run(capsys, "sample", str(path), "-n", "2", "--seed", "1")
        assert code == EXIT_OK and len(out.splitlines()) == 2

    def test_cap_exit(self, tmp_path, capsys):
        wide = tmp_path / "wide.cgm"
        wide.write_text("id(" + "B" * 13 + ")")
        code, _, err = run(capsys, "eval", str(wide))
        assert code == EXIT_CAP
        assert "cap" in err

    def test_single_row(self, tmp_path, capsys):
        path = tmp_path / "gate.cgm"
        path.write_text("not")
        code, out, _ = run(capsys, "eval", str(path), "--input", "1",
                           "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["table"]) == 1
        assert payload["table"][0]["input"] == "1"


class TestEquiv:
    def test_normalize_then_equiv(self, mixture_file, tmp_path, capsys):
        out_path = tmp_path / "nf.cgm"
        cert_path = tmp_path / "cert.json"
        code, _, _ = run(capsys, "normalize", mixture_file,
                         "-o", str(out_path), "--cert", str(cert_path))
        assert code == EXIT_OK
        cert = json.loads(cert_path.read_text())
        assert cert["q"] == 0 and len(cert["leaves"]) == 1
        code, out, _ = run(capsys, "equiv", mixture_file, str(out_path))
        assert code == EXIT_OK
        assert out.startswith("EQUIVALENT ")

    def test_not_equivalent(self, mixture_file, tmp_path, capsys):
        other = tmp_path / "other.cgm"
        other.write_text(MIXTURE.replace("flip(3/10)", "flip(1/3)"))
        code, out, _ = run(capsys, "equiv", mixture_file, str(other))
        assert code == EXIT_NOT_EQUIVALENT
        assert out.startswith("NOT EQUIVALENT")

    def test_marginal_output_sets_differ(self, tmp_path, capsys):
        # flip(1e-15) has a second output that flip(0.0) lacks; the weights
        # alone are within tolerance, so the reason must come from the
        # output sets of the marginal row.
        tiny = tmp_path / "tiny.cgm"
        tiny.write_text("flip(1e-15)")
        zero = tmp_path / "zero.cgm"
        zero.write_text("flip(0.0)")
        code, out, _ = run(capsys, "equiv", str(tiny), str(zero))
        assert code == EXIT_NOT_EQUIVALENT
        assert out == "NOT EQUIVALENT: marginal(*|): outputs {0, 1} vs {0}\n"
        code, out, _ = run(capsys, "equiv", str(tiny), str(zero),
                           "--format", "json")
        assert code == EXIT_NOT_EQUIVALENT
        payload = json.loads(out)
        assert payload["equivalent"] is False
        assert payload["difference"].startswith("marginal(*|)")

    def test_equivalent_json_report(self, tmp_path, capsys):
        first = tmp_path / "first.cgm"
        first.write_text("flip(1/2) ; not")
        second = tmp_path / "second.cgm"
        second.write_text("flip(1/2)")
        code, out, _ = run(capsys, "equiv", str(first), str(second))
        assert code == EXIT_OK
        digest = out.removeprefix("EQUIVALENT ").strip()
        code, out, _ = run(capsys, "equiv", str(first), str(second),
                           "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out) == {"equivalent": True, "certificate": digest}

    def test_boundary_mismatch(self, tmp_path, capsys):
        one = tmp_path / "one.cgm"
        one.write_text("not")          # B -> B
        other = tmp_path / "other.cgm"
        other.write_text("scal(2)")    # R -> R
        code, _, err = run(capsys, "equiv", str(one), str(other))
        assert code == EXIT_BOUNDARY
        assert "boundaries" in err


class TestAxioms:
    def test_suite_single(self, capsys):
        code, out, _ = run(capsys, "axioms", "--axiom", "E10",
                           "--trials", "10", "--seed", "7")
        assert code == EXIT_OK
        assert "E10: PASS (10 trials)" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "axioms", "--axiom", "A1", "--trials", "3",
                           "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["reports"][0]["name"] == "A1"

    def test_json_sweep_of_the_catalog(self, capsys):
        code, out, _ = run(capsys, "axioms", "--trials", "3", "--seed", "5",
                           "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert (payload["trials"], payload["seed"], payload["backend"]) == \
            (3, 5, "auto")
        assert len(payload["reports"]) == 43
        assert all(r["trials"] == 3 and not r["failures"]
                   for r in payload["reports"])

    def test_backend_reaches_the_suite(self, capsys, monkeypatch):
        seen = []

        def spy(*args, **kwargs):
            seen.append(kwargs.get("backend"))
            return soundness_suite(*args, **kwargs)

        monkeypatch.setattr(cli, "soundness_suite", spy)
        for backend in ("float", "rational", "auto"):
            code, _, _ = run(capsys, "axioms", "--axiom", "A1", "--trials",
                             "2", "--backend", backend)
            assert code == EXIT_OK
        assert seen == ["float", "rational", "auto"]

    def test_text_report_names_each_failure(self, capsys, monkeypatch):
        failing = SoundnessReport("E10", 3, [Failure("p=1/2, q=1/3", 0.25)])

        def stub(*args, **kwargs):
            return [SoundnessReport("A1", 3), failing]

        monkeypatch.setattr(cli, "soundness_suite", stub)
        code, out, _ = run(capsys, "axioms", "--trials", "3")
        assert code == EXIT_NOT_EQUIVALENT
        assert out == ("A1: PASS (3 trials)\n"
                       "E10: FAIL (3 trials)\n"
                       "  deviation=0.25 with p=1/2, q=1/3\n"
                       "1/2 axioms sound\n")

    def test_negative_trials(self, capsys):
        code, out, err = run(capsys, "axioms", "--axiom", "A1",
                             "--trials", "-5")
        assert code == EXIT_PARSE and out == ""
        assert "-5 trials" in err


class TestSample:
    def test_reproducible(self, mixture_file, capsys):
        code, first, _ = run(capsys, "sample", mixture_file, "-n", "10",
                             "--seed", "5")
        assert code == EXIT_OK
        _, second, _ = run(capsys, "sample", mixture_file, "-n", "10",
                           "--seed", "5")
        assert first == second
        _, third, _ = run(capsys, "sample", mixture_file, "-n", "10",
                          "--seed", "6")
        assert first != third

    def test_draws_are_pinned(self, mixture_file, capsys):
        """The printed draws of a seed change only on purpose."""
        code, out, _ = run(capsys, "sample", mixture_file, "-n", "1000",
                           "--seed", "5")
        assert code == EXIT_OK and len(out.splitlines()) == 1000
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "6056d410f40ffb2a12f002832f1c46a6f2b7abc7df87ffd6ae1ec45a1463a7fa")

    def test_requires_matching_inputs(self, tmp_path, capsys):
        path = tmp_path / "gate.cgm"
        path.write_text("ite")
        code, _, err = run(capsys, "sample", str(path))
        assert code == EXIT_PARSE
        assert "wants 1 bits and 2 reals" in err

    def test_negative_count(self, mixture_file, capsys):
        code, out, err = run(capsys, "sample", mixture_file, "-n", "-1")
        assert code == EXIT_PARSE and out == ""
        assert "cannot draw -1 samples" in err

    def test_negative_seed_exits_1(self, mixture_file, capsys):
        # Unchecked, it printed "error: expected non-negative integer".
        code, out, err = run(capsys, "sample", mixture_file, "--seed", "-1")
        assert (code, out) == (EXIT_PARSE, "")
        assert err == ("error: cannot seed the sampler with -1: the seed must "
                       "be a non-negative integer\n")

    @pytest.mark.parametrize("source, bits, reals, count", [
        (MIXTURE, "", "", 300), ("flip(1/3) * (stdnormal ; delR)", "", "", 20),
        ("ite * flip(1/4)", "1", "0.5,-2", 50), ("add", "", "1,2", 0)])
    def test_lines_are_each_draw(self, tmp_path, capsys, source, bits, reals, count):
        path = tmp_path / "k.cgm"
        path.write_text(source)
        code, out, _ = run(capsys, "sample", str(path), "-n", str(count),
                           "--seed", "3", "--bits", bits, f"--reals={reals}")
        bools_out, reals_out = sample_many(
            evaluate(parse(source)), str_to_bits(bits),
            [float(v) for v in reals.split(",") if v], count, 3)
        assert code == EXIT_OK
        assert out == "".join(
            f"({bits_to_str(b)}, [{', '.join(repr(float(v)) for v in r)}])\n"
            for b, r in zip(bools_out, reals_out))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_input_point_exits_1(self, tmp_path, capsys, value):
        path = tmp_path / "scaled.cgm"
        path.write_text("id(R) * (stdnormal ; scal(2)) ; add")
        code, out, err = run(capsys, "sample", str(path), f"--reals={value}")
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith("error: input point has entry ")
        assert err.count("\n") == 1

    def test_float_overflow_exits_1(self, tmp_path, capsys):
        # Unchecked, it printed "(, [inf])" per draw after a NumPy warning.
        path = tmp_path / "big.cgm"
        path.write_text("scal(1e300)")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "sample", str(path), "-n", "2",
                                 "--reals=1e300")
        assert (code, out) == (EXIT_PARSE, "")
        assert err == "error: float arithmetic gave inf: a value left the float range\n"

    def test_negative_input_point_needs_no_equals_sign(self, tmp_path, capsys):
        path = tmp_path / "sum.cgm"
        path.write_text("add")
        spaced = run(capsys, "sample", str(path), "-n", "2", "--reals", "-1.5,2.0")
        joined = run(capsys, "sample", str(path), "-n", "2", "--reals=-1.5,2.0")
        assert spaced == joined == (EXIT_OK, "(, [0.5])\n" * 2, "")
        path.write_text("scal(2)")
        for value, want in (("-1.5", "-3.0"), ("-1e-3", "-0.002")):
            code, out, _ = run(capsys, "sample", str(path), "-n", "1",
                               "--reals", value)
            assert (code, out) == (EXIT_OK, f"(, [{want}])\n")

    def test_non_finite_input_point_needs_no_equals_sign(self, tmp_path, capsys):
        # -nan must not read as ``-n an``, the count flag and a value.
        for circuit, value, shown in (("add", "-inf,2", "-inf"),
                                      ("scal(2)", "-nan", "nan")):
            path = tmp_path / "point.cgm"
            path.write_text(circuit)
            spaced = run(capsys, "sample", str(path), "-n", "1", "--reals", value)
            joined = run(capsys, "sample", str(path), "-n", "1", f"--reals={value}")
            assert spaced == joined == (
                EXIT_PARSE, "",
                f"error: input point has entry {shown}, which is not finite\n")
        code, out, _ = run(capsys, "sample", str(path), "-n", "3", "--reals", "-1.5")
        assert (code, out) == (EXIT_OK, "(, [-3.0])\n" * 3)

    def test_with_inputs(self, tmp_path, capsys):
        path = tmp_path / "gate.cgm"
        path.write_text("ite")
        code, out, _ = run(capsys, "sample", str(path), "-n", "3",
                           "--seed", "2", "--bits", "1", "--reals", "2.5,7.0")
        assert code == EXIT_OK
        assert out.splitlines() == ["(, [2.5])"] * 3


class TestRenderAndRewrite:
    def test_render_deterministic(self, mixture_file, capsys):
        code, first, _ = run(capsys, "render", mixture_file)
        assert code == EXIT_OK and first.startswith("digraph circuit")
        _, second, _ = run(capsys, "render", mixture_file)
        assert first == second

    def test_render_json_ast(self, mixture_file, capsys):
        code, out, _ = run(capsys, "render", mixture_file, "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["kind"] == "seq"

    def test_rewrite_script(self, tmp_path, capsys):
        circuit = tmp_path / "c.cgm"
        circuit.write_text("copyR ; (id(R) * copyR)")
        script = tmp_path / "steps.txt"
        script.write_text("# re-associate the copy comb\n"
                          "apply A1 at root dir L2R\n")
        code, out, _ = run(capsys, "rewrite", str(circuit), str(script))
        assert code == EXIT_OK
        assert out.strip() == "copyR ; copyR * id(R)"

    def test_rewrite_with_binding(self, tmp_path, capsys):
        circuit = tmp_path / "c.cgm"
        circuit.write_text(
            "(flip(1/2) * id(RR) ; ite) * id(R) ; (flip(1/2) * id(RR) ; ite)")
        script = tmp_path / "steps.txt"
        script.write_text("apply E10 at root dir L2R with p=1/2, q=1/2\n")
        code, out, _ = run(capsys, "rewrite", str(circuit), str(script))
        assert code == EXIT_OK
        assert "flip(1/4)" in out and "flip(1/3)" in out

    def test_rewrite_writes_the_output_file(self, tmp_path, capsys):
        circuit = tmp_path / "c.cgm"
        circuit.write_text("copyR ; (id(R) * copyR)")
        script = tmp_path / "steps.txt"
        script.write_text("apply A1 at root dir L2R\n")
        target = tmp_path / "out.cgm"
        code, out, _ = run(capsys, "rewrite", str(circuit), str(script),
                           "-o", str(target))
        assert (code, out) == (EXIT_OK, "")
        assert target.read_text() == "copyR ; copyR * id(R)\n"

    def test_rewrite_with_colour_binding(self, tmp_path, capsys):
        circuit = tmp_path / "c.cgm"
        circuit.write_text("id(BR)")
        script = tmp_path / "steps.txt"
        script.write_text("apply SMC-swap-invol at root dir R2L with a=B, b=R\n")
        code, out, _ = run(capsys, "rewrite", str(circuit), str(script))
        assert code == EXIT_OK
        assert out == "swap(B,R) ; swap(R,B)\n"

    def test_rewrite_with_float_binding(self, tmp_path, capsys):
        circuit = tmp_path / "c.cgm"
        circuit.write_text("(flip(0.5) * id(RR) ; ite) * id(R) ; "
                           "(flip(0.5) * id(RR) ; ite)")
        script = tmp_path / "steps.txt"
        script.write_text("apply E10 at root dir L2R with p=0.5, q=0.5\n")
        code, out, _ = run(capsys, "rewrite", str(circuit), str(script))
        assert code == EXIT_OK
        assert "flip(0.25)" in out and "flip(0.3333333333333333)" in out

    def test_rewrite_no_match(self, tmp_path, capsys):
        circuit = tmp_path / "c.cgm"
        circuit.write_text("add")
        script = tmp_path / "steps.txt"
        script.write_text("apply A1 at root dir L2R\n")
        code, _, err = run(capsys, "rewrite", str(circuit), str(script))
        assert code == EXIT_NO_MATCH
        assert "does not match" in err


class TestConfig:
    def test_backend_flags(self, tmp_path, capsys):
        path = tmp_path / "float.cgm"
        path.write_text("flip(0.25)")
        code, out, _ = run(capsys, "eval", str(path), "--format", "json")
        assert code == EXIT_OK
        weights = {c["weight"] for row in json.loads(out)["table"]
                   for c in row["components"]}
        assert weights == {0.25, 0.75}
        code, out, _ = run(capsys, "eval", str(path), "--format", "json",
                           "--backend", "rational")
        assert code == EXIT_OK
        weights = {c["weight"] for row in json.loads(out)["table"]
                   for c in row["components"]}
        assert all(isinstance(w, str) and "/" in w for w in weights)

    def test_normalize_json_payload(self, mixture_file, capsys):
        code, out, _ = run(capsys, "normalize", mixture_file,
                           "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert "flip(7/10)" in payload["circuit"]
        assert payload["certificate"]["boolMarginal"][0]["input"] == ""

    def test_tolerance_env(self, mixture_file, tmp_path, capsys, monkeypatch):
        # widen the tolerance enough that a 1e-6 perturbation passes
        other = tmp_path / "close.cgm"
        other.write_text(MIXTURE.replace("scal(3)", "scal(3.0000001)"))
        code, _, _ = run(capsys, "equiv", mixture_file, str(other))
        assert code == EXIT_NOT_EQUIVALENT
        monkeypatch.setenv("CGM_TOLERANCE", "1e-3")
        code, _, _ = run(capsys, "equiv", mixture_file, str(other))
        assert code == EXIT_OK


def exit_code(capsys, *argv):
    """The code `main` exits or returns with, and what it printed to stdout."""
    try:
        code = main(list(argv))
    except SystemExit as stop:
        code = stop.code
    return code, capsys.readouterr().out


class TestUsage:
    def test_usage_errors_exit_1(self, mixture_file, capsys):
        assert exit_code(capsys, "eval", mixture_file, "--bogus") == (EXIT_PARSE, "")
        assert exit_code(capsys) == (EXIT_PARSE, "")
        assert exit_code(capsys, "eval", mixture_file, "--cap", "x") == (EXIT_PARSE, "")

    def test_help_exits_0(self, capsys):
        code, out = exit_code(capsys, "--help")
        assert code == EXIT_OK and out.startswith("usage: cgm")

    @pytest.mark.parametrize("argv", [
        ("eval", "--tolerance", "0"), ("eval", "--tolerance=-1e-9"),
        ("sample", "--cap", "-1"), ("normalize", "--cap", "-1")])
    def test_bad_limits_exit_1(self, mixture_file, capsys, argv):
        verb, *flags = argv
        assert exit_code(capsys, verb, mixture_file, *flags) == (EXIT_PARSE, "")

    def test_bad_tolerance_env_exits_1(self, mixture_file, capsys, monkeypatch):
        monkeypatch.setenv("CGM_TOLERANCE", "abc")
        code, out = exit_code(capsys, "equiv", mixture_file, mixture_file)
        assert (code, out) == (EXIT_PARSE, "")
        # render evaluates nothing, so it does not read the tolerance
        code, out = exit_code(capsys, "render", mixture_file)
        assert code == EXIT_OK and out.startswith("digraph circuit")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_tolerance_exits_1(self, tmp_path, capsys, monkeypatch,
                                          value):
        # Unchecked, inf called flip(0.3) and flip(0.7) equivalent, and nan
        # failed a sound axiom on a deviation of 1e-17.
        low, high = tmp_path / "low.cgm", tmp_path / "high.cgm"
        low.write_text("flip(0.3)")
        high.write_text("flip(0.7)")
        runs = [("equiv", str(low), str(high)),
                ("axioms", "--axiom", "E10", "--backend", "float",
                 "--trials", "20")]
        for argv in runs:
            code, out, err = run(capsys, *argv, f"--tolerance={value}")
            assert (code, out) == (EXIT_PARSE, "")
            assert err == "error: tolerance must be positive and finite\n"
        monkeypatch.setenv("CGM_TOLERANCE", value)
        for argv in runs:
            code, out, err = run(capsys, *argv)
            assert (code, out) == (EXIT_PARSE, "")
            assert err == "error: tolerance must be positive and finite\n"

    @pytest.mark.parametrize("argv", [
        ("sample", "--format", "json"), ("rewrite", "--format", "json"),
        ("rewrite", "--backend", "float"), ("render", "--cap", "3")])
    def test_flags_a_verb_does_not_read_are_refused(self, mixture_file,
                                                     tmp_path, capsys, argv):
        verb, *flags = argv
        script = tmp_path / "steps.txt"
        script.write_text("apply A1 at root dir L2R\n")
        files = [mixture_file, str(script)] if verb == "rewrite" else [mixture_file]
        assert exit_code(capsys, verb, *files, *flags) == (EXIT_PARSE, "")


class TestSingleInput:
    def test_text_and_json_show_the_same_row(self, tmp_path, capsys):
        path = tmp_path / "gate.cgm"
        path.write_text("flip(1/3) * id(B) ; and")
        code, text, _ = run(capsys, "eval", str(path), "--input", "1")
        assert code == EXIT_OK
        assert text.splitlines() == [
            "kernel: B -> B", "input 1:",
            "  weight=2/3 boolOut=0 A=[] mu=[] cov=[]",
            "  weight=1/3 boolOut=1 A=[] mu=[] cov=[]"]
        code, out, _ = run(capsys, "eval", str(path), "--input", "1",
                           "--format", "json")
        assert code == EXIT_OK
        table = json.loads(out)["table"]
        assert [row["input"] for row in table] == ["1"]
        assert [(c["weight"], c["boolOut"]) for c in table[0]["components"]] \
            == [("2/3", "0"), ("1/3", "1")]

    def test_wrong_width_exits_1(self, tmp_path, capsys):
        path = tmp_path / "gate.cgm"
        path.write_text("not")
        code, out, err = run(capsys, "eval", str(path), "--input", "10")
        assert code == EXIT_PARSE and out == ""
        assert "--input needs 1 bits, got 2" in err

    def test_non_bit_input_exits_1(self, tmp_path, capsys):
        path = tmp_path / "gate.cgm"
        path.write_text("not")
        code, out, err = run(capsys, "eval", str(path), "--input", "2")
        assert (code, out) == (EXIT_PARSE, "")
        assert err == "error: not a bit string: '2'\n"

    @pytest.mark.parametrize("argv, shown", [
        (("eval", "--input", "0x1"), "0x1"), (("sample", "--bits", "2"), "2")])
    def test_non_bit_strings_are_one_error_line(self, tmp_path, capsys, argv, shown):
        # `str_to_bits` raises `InvalidBits`, a `CgmError`.
        path = tmp_path / "gate.cgm"
        path.write_text("not")
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out) == (EXIT_PARSE, "")
        assert err == f"error: not a bit string: {shown!r}\n"


class TestRewriteScriptSyntax:
    CIRCUIT = "(flip(1/2) * id(RR) ; ite) * id(R) ; (flip(1/2) * id(RR) ; ite)"

    def rewrite(self, tmp_path, capsys, circuit, script):
        path = tmp_path / "c.cgm"
        path.write_text(circuit)
        steps = tmp_path / "steps.txt"
        steps.write_text(script)
        return run(capsys, "rewrite", str(path), str(steps))

    def test_malformed_binding_names_its_line(self, tmp_path, capsys):
        code, out, err = self.rewrite(
            tmp_path, capsys, self.CIRCUIT,
            "# bindings below\napply E10 at root dir L2R with p=1/2, q\n")
        assert code == EXIT_PARSE and out == ""
        assert "line 2: bad binding ' q'" in err

    def test_malformed_line_names_its_line(self, tmp_path, capsys):
        code, out, err = self.rewrite(
            tmp_path, capsys, self.CIRCUIT,
            "apply E10 at root dir L2R with p=1/2, q=1/2\napply A1 at root\n")
        assert code == EXIT_PARSE and out == ""
        assert "line 2: expected 'apply <axiom> at <path>" in err

    def test_trailing_words_name_their_line(self, tmp_path, capsys):
        code, _, err = self.rewrite(tmp_path, capsys, "copyR ; (id(R) * copyR)",
                                    "apply A1 at root dir L2R junk\n")
        assert code == EXIT_PARSE
        assert "line 1: trailing 'junk'" in err

    def test_trailing_comma_is_accepted(self, tmp_path, capsys):
        code, out, _ = self.rewrite(
            tmp_path, capsys, self.CIRCUIT,
            "apply E10 at root dir L2R with p=1/2, q=1/2,\n")
        assert code == EXIT_OK
        assert "flip(1/4)" in out and "flip(1/3)" in out

    def test_braced_circuit_may_hold_commas(self, tmp_path, capsys):
        code, out, _ = self.rewrite(
            tmp_path, capsys, "ite ; (copyR ; swap(R,R))",
            "apply E5 at root dir R2L with c={ copyR ; swap(R,R) }\n")
        assert code == EXIT_OK
        assert out.startswith(
            "id(B) * (copyR ; swap(R,R)) * (copyR ; swap(R,R)) ; ")

    # A value of the wrong sort for a metavariable is an error of its line,
    # not a traceback.
    @pytest.mark.parametrize("step, message", [
        ("apply SMC-seq-unit-l at root dir R2L with c=3",
         "SMC-seq-unit-l: c must be a circuit"),
        ("apply SMC-seq-unit-l at root dir R2L with c=B",
         "SMC-seq-unit-l: c must be a circuit"),
        ("apply E4 at root dir L2R with c=B, d=R", "E4: c must be a circuit"),
        ("apply SMC-interchange at root dir L2R with c1=1, c2=2, d1=3, d2=4",
         "SMC-interchange: c1 must be a circuit"),
        ("apply SMC-swap-invol at root dir R2L",
         "SMC-swap-invol: a must be a colour"),
        ("apply SMC-swap-invol at root dir R2L with a=3, b=B",
         "SMC-swap-invol: a must be a colour")])
    def test_mistyped_binding_exits_1(self, tmp_path, capsys, step, message):
        got = self.rewrite(tmp_path, capsys, "copyR ; (id(R) * copyR)",
                           step + "\n")
        assert got == (EXIT_PARSE, "", f"error: line 1: {message}\n")

    # A binding whose name the schema does not declare is an error of its
    # line, not a rewrite that ignores it.
    @pytest.mark.parametrize("step, message", [
        ("apply A1 at root dir L2R with zz=3", "A1: no variable zz"),
        ("\napply A1 at root dir L2R with x={ copyR }", "A1: no variable x"),
        ("apply SMC-swap-invol at root dir R2L with a=R, b=R, c=B",
         "SMC-swap-invol: no variable c")])
    def test_undeclared_binding_exits_1(self, tmp_path, capsys, step, message):
        line = 2 if step.startswith("\n") else 1
        got = self.rewrite(tmp_path, capsys, "copyR ; (id(R) * copyR)",
                           step + "\n")
        assert got == (EXIT_PARSE, "", f"error: line {line}: {message}\n")

    # A parse error in a braced circuit names its file, line and column in
    # the script.
    @pytest.mark.parametrize("step, where, message", [
        ("apply E5 at root dir R2L with c={ copyR ; }",
         "2:43", "expected a circuit, found ''"),
        ("  apply E5 at root dir R2L with  c = { copyR }, d={ copyR ;; }",
         "2:60", "expected a circuit, found ';'"),
        ("apply E5 at root dir R2L with c={ scal(1/0) }",
         "2:40", "zero denominator in '1/0'")])
    def test_braced_parse_error_names_its_place(self, tmp_path, capsys, step,
                                                where, message):
        got, out, err = self.rewrite(tmp_path, capsys, "copyR ; (id(R) * copyR)",
                                     "# one step\n" + step + "\n")
        steps = tmp_path / "steps.txt"
        assert (got, out) == (EXIT_PARSE, "")
        assert err.startswith(f"{steps}:{where}: parse error: line 2: {message}")

    # A matched line's later errors keep their exit code and name the line.
    @pytest.mark.parametrize("step, code, message", [
        ("apply E10 at root dir L2R with p=abc, q=1/2",
         EXIT_PARSE, "error: line 2: Invalid literal for Fraction: 'abc'"),
        ("apply E10 at root dir L2R with p=1/0, q=1/2",
         EXIT_PARSE, "error: line 2: zero denominator in '1/0'"),
        ("apply E5 at root dir R2L with c={ copyR ; }",
         EXIT_PARSE, "parse error: line 2: expected a circuit"),
        ("apply A1 at 0.x dir L2R",
         EXIT_PARSE, "error: line 2: invalid literal for int()"),
        ("apply A1 at root dir sideways",
         EXIT_PARSE, "error: line 2: direction must be 'L2R' or 'R2L'"),
        ("apply A1 at 5 dir L2R",
         EXIT_NO_MATCH, "error: line 2: child index 5 out of range"),
        ("apply A1 at root dir R2L",
         EXIT_NO_MATCH, "error: line 2: A1 R2L: subterm does not match")])
    def test_step_errors_name_their_line(self, tmp_path, capsys, step, code,
                                         message):
        got, out, err = self.rewrite(tmp_path, capsys, "copyR ; (id(R) * copyR)",
                                     "# one step\n" + step + "\n")
        assert (got, out) == (code, "")
        assert message in err


class TestGeneratorSpans:
    @pytest.mark.parametrize("text, where, message", [
        ("flip(3/2)", "1:1", "flip bias 3/2 not in [0, 1]"),
        ("stdnormal ;\n  scal(1e400)", "2:3", "scal(inf) is not finite")])
    def test_bad_parameter_reports_its_place(self, tmp_path, capsys, text,
                                             where, message):
        path = tmp_path / "bad.cgm"
        path.write_text(text)
        code, out, err = run(capsys, "eval", str(path))
        assert code == EXIT_PARSE and out == ""
        assert err == f"{path}:{where}: error: {message}\n"
