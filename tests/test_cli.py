"""Command-line behaviour: reports, exit codes, determinism."""

import json
from fractions import Fraction

import pytest

from uqsl import LinForm, affine_symbols, cli, finite, report
from uqsl.affine import FAMILIES, run_affine
from uqsl.cli import main, parse_scalar

FAST_AFFINE = ["check-affine", "--energy-cut", "0", "--mode-window", "1",
               "--psi-nmax", "1"]


def run_json(tmp_path, argv, name="r.json"):
    path = tmp_path / name
    code = main(argv + ["--report", str(path)])
    return code, json.loads(path.read_text(encoding="utf-8"))


class TestParseScalar:
    def test_unit(self):
        T = affine_symbols()
        assert parse_scalar(T, "1") == T.one()

    def test_rational(self):
        T = affine_symbols()
        assert parse_scalar(T, "-3/2") == T.rational(Fraction(-3, 2))

    def test_q_power(self):
        T = affine_symbols()
        assert parse_scalar(T, "q^-2") == T.qpow(LinForm(-2))

    def test_monomial(self):
        T = affine_symbols()
        want = T.qpow(LinForm(1, {"k": Fraction(1)})) * T.monomial(
            {"e21": 1, "e11": -1, "e22": -1}
        )
        assert parse_scalar(T, "q*G^2*e21*e11^-1*e22^-1") == want

    def test_unknown_symbol(self):
        with pytest.raises(ValueError):
            parse_scalar(affine_symbols(), "zz^2")

    def test_empty_factor(self):
        with pytest.raises(ValueError):
            parse_scalar(affine_symbols(), "q**2")

    @pytest.mark.parametrize("text, factor", [
        ("e11^x", "e11^x"), ("q^1/2", "q^1/2"), ("e11^", "e11^"), ("q*e12^2.5", "e12^2.5"),
    ])
    def test_bad_exponent(self, text, factor):
        with pytest.raises(ValueError, match="is not an integer") as info:
            parse_scalar(affine_symbols(), text)
        assert repr(factor) in str(info.value) and repr(text) in str(info.value)

    @pytest.mark.parametrize("expr", ["e11^x", "q^1/2", "e11^"])
    def test_bad_exponent_exits_2(self, expr, capsys):
        assert main(FAST_AFFINE + ["--override", f"f13={expr}"]) == 2
        err = capsys.readouterr().err
        assert f"exponent of '{expr}' is not an integer in '{expr}'" in err


class TestApply:
    def test_lowering(self, capsys):
        assert main(["apply", "--expr", "f1", "--on", "1"]) == 0
        assert capsys.readouterr().out.strip() == "((L1 - L1^-1) / (q - q^-1))*x12"

    def test_cartan_eigenvalue(self, capsys):
        assert main(["apply", "--expr", "t1", "--on", "x12"]) == 0
        assert capsys.readouterr().out.strip() == "L1*q^-2*x12"

    def test_commutator_word(self, capsys):
        assert main(["apply", "--expr", "e1 f1 - f1 e1", "--on", "1"]) == 0
        assert capsys.readouterr().out.strip() == "(L1 - L1^-1) / (q - q^-1)"

    def test_inverse_cancels(self, capsys):
        assert main(["apply", "--expr", "t1 t1^-1", "--on", "x12"]) == 0
        assert capsys.readouterr().out.strip() == "x12"

    def test_bad_token(self):
        assert main(["apply", "--expr", "g1", "--on", "1"]) == 2

    def test_bad_index(self):
        assert main(["apply", "--expr", "e7", "--on", "1"]) == 2

    def test_bad_monomial(self, capsys):
        assert main(["apply", "--expr", "e1", "--on", "x99"]) == 2
        for on in ("x1_a", "xab", "x1_", "x_2"):
            capsys.readouterr()
            assert main(["apply", "--expr", "e1", "--on", on]) == 2
            assert capsys.readouterr().err.strip() == f"error: bad variable {on!r}"

    def test_dangling_sign(self):
        assert main(["apply", "--expr", "e1 -", "--on", "1"]) == 2

    @pytest.mark.parametrize("on, factor", [
        ("x12^a", "x12^a"), ("x13*x12^", "x12^"), ("x12^1/2", "x12^1/2"),
    ])
    def test_bad_exponent(self, on, factor, capsys):
        assert main(["apply", "--expr", "e1", "--on", on]) == 2
        err = capsys.readouterr().err
        assert f"exponent of {factor!r} is not an integer in {on!r}" in err


class TestCheckFinite:
    def test_report_schema(self, tmp_path):
        code, data = run_json(
            tmp_path, ["check-finite", "--M", "2", "--N", "1", "--max-degree", "2"])
        assert code == 0
        assert data["tool"] == "uqsl" and data["suite"] == "finite"
        assert data["config"]["M"] == 2 and data["config"]["max_degree"] == 2
        counts = {"pass": 0, "fail": 0, "not-applicable": 0}
        for rel in data["relations"]:
            counts[rel["status"]] += 1
        assert data["summary"] == dict(counts, total=len(data["relations"]))
        assert counts["fail"] == 0

    def test_bracket_ids_present(self, tmp_path):
        _, data = run_json(
            tmp_path, ["check-finite", "--M", "2", "--N", "0", "--max-degree", "2"])
        ids = {r["id"] for r in data["relations"]}
        assert {f"bracket.eq32.n={n}" for n in (1, 2, 3, 4)} <= ids

    def test_sabotage_fails(self, tmp_path):
        code, data = run_json(
            tmp_path,
            ["check-finite", "--M", "2", "--N", "1", "--max-degree", "2",
             "--sabotage", "f2"])
        assert code == 1
        bad = [r for r in data["relations"] if r["status"] == "fail"]
        assert bad and all("witness" in r for r in bad)

    @pytest.mark.parametrize("sab", ["f1", "e_iip", "f3", "f2-theta"])
    def test_sabotage_that_changes_nothing(self, tmp_path, capsys, sab):
        # (1|1) has no f1, e_iip or f3 atoms, and f2's x12 multiplier leaves
        # no term where theta_12 is nonzero: every relation would pass
        path = tmp_path / "x.json"
        code = main(["check-finite", "--M", "1", "--N", "1", "--max-degree", "2",
                     "--sabotage", sab, "--report", str(path)])
        assert code == 2 and not path.exists()
        err = capsys.readouterr().err
        assert f"sabotage {sab!r} changes nothing on shape (1|1)" in err

    def test_unknown_sabotage(self, tmp_path):
        code = main(["check-finite", "--M", "2", "--N", "1",
                     "--sabotage", "nope", "--report", str(tmp_path / "x.json")])
        assert code == 2

    def test_too_small(self, tmp_path, capsys):
        code = main(["check-finite", "--M", "1", "--N", "0",
                     "--report", str(tmp_path / "x.json")])
        assert code == 2
        code = main(["check-finite", "--M", "2", "--N", "1", "--max-degree", "-2",
                     "--report", str(tmp_path / "x.json")])
        assert code == 2
        assert "--max-degree" in capsys.readouterr().err

    def test_byte_identical_and_jobs(self, tmp_path):
        args = ["check-finite", "--M", "2", "--N", "1", "--max-degree", "2"]
        for name, extra in (("a", []), ("b", []), ("c", ["--jobs", "3"])):
            assert main(args + extra + ["--report", str(tmp_path / name)]) == 0
        a = (tmp_path / "a").read_bytes()
        assert a == (tmp_path / "b").read_bytes()
        assert a == (tmp_path / "c").read_bytes()

    def test_sabotage_spares_remarks_and_bracket(self, tmp_path):
        # they run on the clean realization: f2 would break remark2
        code, data = run_json(tmp_path, ["check-finite", "--M", "3", "--N", "1",
                                         "--max-degree", "2", "--sabotage", "f2"])
        assert code == 1
        clean = [r for r in data["relations"] if r["id"].startswith(("remark", "bracket."))]
        assert len(clean) == 6 + 3 + 4
        assert all(r["status"] == "pass" for r in clean)


class TestCheckAffine:
    def test_vacuum_suite(self, tmp_path):
        code, data = run_json(tmp_path, FAST_AFFINE)
        assert code == 0
        assert data["summary"]["fail"] == 0
        assert data["summary"]["not-applicable"] == 1
        eq14 = next(r for r in data["relations"] if r["id"] == "drinfeld.eq14")
        assert eq14["status"] == "not-applicable"

    def test_window_zero_checks_nothing_for_h(self, tmp_path):
        # H zero modes act through K only, so window 0 leaves eq7's H
        # relations without a single case
        code, data = run_json(tmp_path, ["check-affine", "--energy-cut", "0",
                                         "--mode-window", "0", "--psi-nmax", "0"])
        assert code == 0
        by_id = {r["id"]: r for r in data["relations"]}
        for i in (1, 2):
            for j in (1, 2):
                rel = by_id[f"drinfeld.eq7.i={i}.j={j}.gen=H"]
                assert rel["status"] == "not-applicable" and rel["checked"] == 0
                assert "reason" in rel["witness"]
        assert not [r["id"] for r in data["relations"]
                    if r["status"] == "pass" and r["checked"] == 0]

    def test_override_detected(self, tmp_path):
        code, data = run_json(tmp_path, FAST_AFFINE + ["--override", "f13=1"])
        assert code == 1
        fails = {r["id"] for r in data["relations"] if r["status"] == "fail"}
        assert "drinfeld.eq10.i=2.j=1.n=0.m=-1.k=formal" in fails
        assert data["config"]["overrides"] == {"f13": "1"}

    def test_override_witness_concrete(self, tmp_path):
        _, data = run_json(tmp_path, FAST_AFFINE + ["--override", "f13=1"])
        bad = next(r for r in data["relations"] if r["status"] == "fail")
        assert set(bad["witness"]) == {"element", "at", "lhs", "rhs"}

    def test_bad_override_name(self, tmp_path):
        assert main(FAST_AFFINE + ["--override", "f99=1"]) == 2

    def test_bad_override_expr(self, tmp_path, capsys):
        assert main(FAST_AFFINE + ["--override", "f13=zzz"]) == 2
        # a zero denominator is a parse error (2), not a failed relation (1)
        for expr in ("1/0", "0^-1"):
            assert main(FAST_AFFINE + ["--override", f"f13={expr}"]) == 2
            assert f"division by zero in '{expr}'" in capsys.readouterr().err

    def test_numeric_level(self, tmp_path):
        code, data = run_json(tmp_path, FAST_AFFINE + ["--k", "2"])
        assert code == 0
        assert data["config"]["k"] == "2"

    def test_bad_level(self):
        with pytest.raises(SystemExit) as exc:
            main(FAST_AFFINE + ["--k", "x"])
        assert exc.value.code == 2

    def test_jobs_byte_identical(self, tmp_path):
        # the failing run (exit 1, witnesses) goes through the same task path
        for override, code in (([], 0), (["--override", "f13=1"], 1)):
            for name, extra in (("a", []), ("b", ["--jobs", "2"])):
                argv = FAST_AFFINE + override + extra + ["--report", str(tmp_path / name)]
                assert main(argv) == code
            assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_matches_run_affine(self, tmp_path):
        _, data = run_json(tmp_path, FAST_AFFINE + ["--override", "f13=1"])
        T = affine_symbols()
        direct = run_affine(E_cut=0, window=1, psi_nmax=1,
                            f_overrides={"f13": T.one()})
        want = sorted((r.id, r.status, r.witness) for r in direct)
        got = [(r["id"], r["status"], r.get("witness")) for r in data["relations"]]
        assert got == want
        assert any(status == "fail" for _, status, _ in got)

    def test_timings_opt_in(self, tmp_path):
        _, plain = run_json(tmp_path, FAST_AFFINE, "p.json")
        _, timed = run_json(tmp_path, FAST_AFFINE + ["--timings"], "t.json")
        assert "timings" not in plain
        assert timed["timings"]["total_seconds"] >= 0

    def test_stdout_json(self, capsys):
        assert main(FAST_AFFINE) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["suite"] == "affine"

    def test_seed_reaches_the_oracle(self, tmp_path, monkeypatch):
        seeds = set()
        real = report.numeric_check

        def spy(seed, rel_id, pairs):
            seeds.add(seed)
            return real(seed, rel_id, pairs)

        monkeypatch.setattr(report, "numeric_check", spy)
        for argv in (FAST_AFFINE, ["check-finite", "--M", "2", "--N", "1",
                                   "--max-degree", "1"]):
            seeds.clear()
            assert main(argv + ["--seed", "7", "--report", str(tmp_path / "r.json")]) == 0
            assert seeds == {7}

    def test_context_released_after_run(self, monkeypatch):
        # the families of one run share one context; none outlives main
        built = []

        class Counted(cli.AffineContext):
            def __init__(self, **kw):
                built.append(kw)
                super().__init__(**kw)

        monkeypatch.setattr(cli, "AffineContext", Counted)
        for override, code in (([], 0), (["--override", "f13=1"], 1)):
            built.clear()
            assert main(FAST_AFFINE + override) == code
            assert len(built) == 1
            assert cli._affine_setup.cache_info().currsize == 0


class TestUsage:
    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_jobs_capped_at_tasks(self, tmp_path, monkeypatch):
        # a pool starts all its workers at the first submit, so --jobs
        # beyond the task count would fork idle processes
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        assert main(FAST_AFFINE + ["--jobs", "500", "--report", str(tmp_path / "a")]) == 0
        assert main(["check-finite", "--M", "2", "--N", "1", "--max-degree", "1",
                     "--jobs", "500", "--report", str(tmp_path / "f")]) == 0
        assert sizes == [len(FAMILIES), len(finite.FAMILIES)]

    def test_jobs_floor(self, capsys):
        assert main(FAST_AFFINE + ["--jobs", "0"]) == 2
        # negative sizes would check an empty basis or window and pass
        for opt in ("--energy-cut", "--mode-window", "--psi-nmax",
                    "--momentum-radius"):
            assert main(FAST_AFFINE + [opt, "-1"]) == 2
            assert opt in capsys.readouterr().err
