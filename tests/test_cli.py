import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from measura.cli import (
    COMMANDS,
    STOCHASTIC_COMMANDS,
    ExperimentConfig,
    UsageError,
    build_parser,
    emit,
    excursion_claim,
    main,
    run,
    sw_approx_claim,
)
from measura.metric_core import NonConvergenceError

# Former flags that are claim inputs now: the claim that takes each, and the name it refuses a bad value by.
CLAIM_OF = {"eps": (lambda eps: excursion_claim(eps, 100, seeds=(1, 2, 3)), "eps"),
            "m_max": (sw_approx_claim, "degree_budget")}


class TestConfigValidation:
    def test_unknown_command(self):
        with pytest.raises(UsageError, match="command"):
            ExperimentConfig(command="nope").validate()

    def test_stochastic_commands_require_seed(self):
        with pytest.raises(UsageError, match="seed"):
            ExperimentConfig(command="excursion").validate()
        with pytest.raises(UsageError, match="seed"):
            ExperimentConfig(command="prohorov-oracle").validate()

    def test_deterministic_commands_run_without_seed(self):
        ExperimentConfig(command="fragmentation").validate()
        ExperimentConfig(command="sw-approx").validate()

    def test_bad_format(self):
        with pytest.raises(UsageError, match="format"):
            ExperimentConfig(command="fragmentation", format="yaml").validate()

    def test_bad_numeric_field_named(self):
        with pytest.raises(ValueError, match="eps must be finite and positive, got -1.0"):
            excursion_claim(-1.0, 100, seeds=(1, 2, 3))
        with pytest.raises(UsageError, match="n-paths: excursion needs at least 100 paths"):
            ExperimentConfig(command="excursion", seed=1, n_paths=0).validate()

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("field, name", [("eps", "eps"), ("m_max", "m-max")])
    def test_non_finite_numeric_field_named(self, field, name, value, capsys):
        # --eps and --m-max are gone: the parser names the flag, and the claim that takes the value names its input
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--command", "sw-approx", f"--{name}", str(value)])
        assert exc.value.code == 2 and f"unrecognized arguments: --{name} {value}" in capsys.readouterr().err
        claim, input_name = CLAIM_OF[field]
        with pytest.raises(ValueError, match=f"{input_name} must be "):
            claim(value)

    @pytest.mark.parametrize("field, value", [("seed", 7.5), ("seed", True), ("n_paths", 10.5), ("n_paths", None),
                                              ("eps", True), ("m_max", True), ("eps", "0.1"), ("eps", None),
                                              ("eps", 1j), ("m_max", "512"), ("m_max", None)])
    def test_non_integral_seed_or_n_paths_named(self, field, value):
        # also a bool: True must not run as 1 or 1.0; a str, None or complex
        # must not reach a comparison.  eps and the degree budget are claim
        # inputs, refused by name by the claim that takes them.
        if field in CLAIM_OF:
            claim, name = CLAIM_OF[field]
            with pytest.raises(ValueError, match=f"{name} must be (a real number|an int), got {re.escape(repr(value))}"):
                claim(value)
            return
        command = {"seed": "prohorov-oracle", "n_paths": "excursion"}[field]
        config = ExperimentConfig(command=command, **{"seed": 7, field: value})
        with pytest.raises(UsageError, match=f"{field.replace('_', '-')}: must be an int, not"):
            run(config)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_named(self, seed):
        with pytest.raises(UsageError, match="seed: must be an unsigned 64-bit integer"):
            ExperimentConfig(command="prohorov-oracle", seed=seed).validate()

    @pytest.mark.parametrize("out", [5, Path("fragmentation.csv")], ids=["int", "path"])
    def test_out_that_is_not_a_str_named(self, out):
        # an int used to end in a TypeError from os.path; out is declared str | None
        with pytest.raises(UsageError, match=f"out: must be a str, not {type(out).__name__}"):
            run(ExperimentConfig(command="fragmentation", out=out))

    def test_sw_approx_degree_budget_below_one(self):
        # the degree budget is sw_approx_claim's input; budget 1 runs, and is exhausted
        with pytest.raises(ValueError, match="degree_budget must be at least 1, got 0"):
            sw_approx_claim(0)
        with pytest.raises(NonConvergenceError, match="degree budget exhausted"):
            sw_approx_claim(1)

    def test_sw_approx_non_integer_degree_budget(self):
        # the budget is a polynomial degree: 512.9 must not run as 512.  The
        # command runs budget 1000, which gives the rows of any budget from 256 up
        with pytest.raises(ValueError, match="degree_budget must be an int, got 512.9"):
            sw_approx_claim(512.9)
        assert sw_approx_claim(512) == sw_approx_claim(1000)


# The ExperimentConfig fields each command reads besides out and format.
READS = {
    "levy-recover": (),
    "levy-converge": (),
    "random-measure": (),
    "excursion": ("seed", "n_paths"),
    "fragmentation": (),
    "sw-approx": (),
    "prohorov-oracle": ("seed",),
}
# A valid value other than the default for each flag.
FLAG_VALUES = {"seed": "3", "n_paths": "200"}
# Flags no command reads any more, each with a value a caller used to pass.
GONE_FLAGS = {"eps": "0.05", "m_max": "512"}
READ_PAIRS = [(c, f) for c in READS for f in READS[c]]
UNREAD_PAIRS = [(c, f) for c in READS for f in (*FLAG_VALUES, *GONE_FLAGS) if f not in READS[c]]


def _flag_argv(command, field, tmp_path):
    flag = "--" + field.replace("_", "-")
    seed = ["--seed", "1"] if command in STOCHASTIC_COMMANDS and field != "seed" else []
    value = {**FLAG_VALUES, **GONE_FLAGS}[field]
    return ["--command", command, *seed, flag, value, "--out", str(tmp_path / f"{command}.csv")]


class TestCommandFlags:
    def test_each_command_has_its_flags(self):
        assert set(READS) == set(COMMANDS)
        assert len(READ_PAIRS) == 3 and len(UNREAD_PAIRS) == 25

    @pytest.mark.parametrize("command, field", UNREAD_PAIRS)
    def test_unread_flag_is_usage_error(self, command, field, tmp_path, capsys):
        argv = _flag_argv(command, field, tmp_path)
        flag = "--" + field.replace("_", "-")
        if field in GONE_FLAGS:  # no such flag: the parser refuses it
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            message = f"unrecognized arguments: {flag} {GONE_FLAGS[field]}"
        else:
            assert main(argv) == 2
            message = f"{flag[2:]}: not read by {command}"
        assert message in capsys.readouterr().err
        assert not os.path.exists(argv[-1])

    @pytest.mark.parametrize("command, field", READ_PAIRS)
    def test_read_flag_is_accepted(self, command, field, tmp_path):
        config = ExperimentConfig(**vars(build_parser().parse_args(_flag_argv(command, field, tmp_path))))
        config.validate()
        assert getattr(config, field) != getattr(ExperimentConfig, field)

    def test_unread_nan_is_usage_error(self):
        with pytest.raises(UsageError, match="n-paths: not read by sw-approx"):
            ExperimentConfig(command="sw-approx", n_paths=math.nan).validate()

    def test_unread_flag_at_its_default_is_accepted(self, tmp_path):
        argv = ["--command", "fragmentation", "--n-paths", "100000", "--out", str(tmp_path / "frag.csv")]
        assert main(argv) == 0

    @pytest.mark.parametrize("command", COMMANDS)
    def test_config_echo_holds_read_fields_only(self, command):
        seed = 1 if command in STOCHASTIC_COMMANDS else None
        assert set(ExperimentConfig(command=command, seed=seed).echo()) == {"command", "format", *READS[command]}

    @pytest.mark.parametrize("workload", ["cli-light", "excursion-tail"])
    def test_benchmark_invocations_validate(self, workload, tmp_path, monkeypatch):
        # the benchmark's argvs must stay valid; its module is loaded under a
        # name of its own and without writing bytecode next to it
        path = Path(__file__).resolve().parents[1] / "perfbench" / "common.py"
        spec = importlib.util.spec_from_file_location("_measura_test_perfbench_common", path)
        common = importlib.util.module_from_spec(spec)
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        spec.loader.exec_module(common)
        argvs = common.cli_argvs(workload, 7, tmp_path)
        assert argvs
        for _, argv in argvs:
            ExperimentConfig(**vars(build_parser().parse_args(argv))).validate()

    def test_help_lists_each_commands_flags(self):
        help_text = build_parser().format_help()
        assert "flags: --seed --n-paths\n" in help_text and "flags: --seed\n" in help_text
        assert help_text.count("flags: none\n") == 5
        assert not any(flag in help_text for flag in ("--eps", "--m-max", "--tol", "--dt"))


class TestParser:
    def test_help_names_every_command(self):
        help_text = build_parser().format_help()
        for cmd in COMMANDS:
            assert cmd in help_text
        assert "Levy-Khintchine" in help_text
        assert "excursion measure" in help_text
        assert "Prokhorov" in help_text
        assert "Stone-Weierstrass" in help_text

    @pytest.mark.parametrize("command", COMMANDS)
    def test_parsed_defaults_are_config_defaults(self, command):
        args = build_parser().parse_args(["--command", command])
        assert ExperimentConfig(**vars(args)) == ExperimentConfig(command=command)


class TestEmit:
    def _result(self):
        return run(ExperimentConfig(command="fragmentation"))

    def test_csv_has_header_and_17_digit_floats(self, tmp_path):
        res = self._result()
        path = str(tmp_path / "frag.csv")
        emit(res, "csv", path)
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "n,G_1,max_coordinate"
        assert len(lines) == 1 + len(res.rows)
        # 1/10 round-trips through 17 significant digits
        assert any("0.10000000000000001" in line for line in lines)

    def test_unknown_format_writes_nothing(self, tmp_path):
        path = tmp_path / "frag.yaml"
        with pytest.raises(UsageError, match="format: unknown format 'yaml'"):
            emit(self._result(), "yaml", str(path))
        assert not path.exists()

    def test_empty_rows_gives_header_only_file(self, tmp_path):
        from measura.cli import ExperimentResult

        res = ExperimentResult({"command": "x"}, [], {}, 0.0)
        path = str(tmp_path / "empty.csv")
        emit(res, "csv", path)
        assert Path(path).read_text() == "\n"

    def test_levy_recover_rows_have_header_field_count(self, tmp_path):
        # the C[k,j] labels contain a comma, so they must be quoted
        import csv

        path = str(tmp_path / "levy.csv")
        emit(run(ExperimentConfig(command="levy-recover")), "csv", path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(r) for r in rows] == [4] * 7
        assert [r[0] for r in rows[1:5]] == ["C[0,0]", "C[0,1]", "C[1,0]", "C[1,1]"]

    def test_json_roundtrip(self, tmp_path):
        res = self._result()
        path = str(tmp_path / "frag.json")
        emit(res, "json", path)
        doc = json.loads(Path(path).read_text())
        assert set(doc) == {"config", "rows", "verdicts", "meta"}
        assert doc["rows"] == json.loads(json.dumps(res.rows))
        assert doc["config"] == {"command": "fragmentation", "format": "csv"}
        assert "wall_clock" not in json.dumps(doc)

    def test_determinism_bitwise(self, tmp_path):
        for cfg in (ExperimentConfig(command="prohorov-oracle", seed=7),
                    ExperimentConfig(command="excursion", seed=7, n_paths=200)):
            p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
            emit(run(cfg), "csv", p1)
            emit(run(cfg), "csv", p2)
            assert Path(p1).read_bytes() == Path(p2).read_bytes()


# CSV bytes at the defaults of three commands whose arithmetic is math, fsum,
# closed-form Richardson extrapolation and scalar plane waves exp(i u.x) on
# one-coordinate points, with no BLAS call that could round differently
# between builds.
PINNED_CSV = {
    "levy-converge": (
        "n,max_gap\n"
        "1,2.3732948413174473\n"
        "10,0.19191417936994415\n"
        "100,0.018456196532359838\n"
        "1000,0.0018380464128814164\n"
        "10000,0.0001837286958543558\n"
    ),
    "random-measure": (
        "label,true_b,recovered_b,abs_err\n"
        "a,0.5,0.5,0\n"
        "b,0,0,0\n"
        "c,2,2,0\n"
        "product-identity,0,2.2204460492503131e-16,2.2204460492503131e-16\n"
    ),
    "fragmentation": (
        "n,G_1,max_coordinate\n"
        "1,1,1\n"
        "2,1,0.5\n"
        "5,1,0.20000000000000001\n"
        "10,1,0.10000000000000001\n"
        "100,1,0.01\n"
        "1000,1,0.001\n"
    ),
}


class TestCommands:
    @pytest.mark.parametrize("command", sorted(PINNED_CSV))
    def test_default_csv_bytes_are_pinned(self, command, tmp_path):
        out = tmp_path / f"{command}.csv"
        assert main(["--command", command, "--out", str(out)]) == 0
        assert out.read_bytes() == PINNED_CSV[command].encode()

    def test_levy_recover(self):
        res = run(ExperimentConfig(command="levy-recover"))
        assert res.passed
        assert max(r["abs_err"] for r in res.rows) < 1e-2

    def test_levy_converge(self):
        res = run(ExperimentConfig(command="levy-converge"))
        assert res.passed
        assert res.rows[-1]["n"] == 10_000 and res.rows[-1]["max_gap"] < 1e-3

    def test_random_measure(self):
        res = run(ExperimentConfig(command="random-measure"))
        assert res.passed

    def test_fragmentation_column_exactly_one(self):
        res = run(ExperimentConfig(command="fragmentation"))
        assert res.passed
        assert all(r["G_1"] == 1.0 for r in res.rows)

    def test_prohorov_oracle(self):
        res = run(ExperimentConfig(command="prohorov-oracle", seed=3))
        assert res.passed
        assert max(r["abs_diff"] for r in res.rows) < 1e-12

    def test_excursion_small_run_schema(self):
        res = run(ExperimentConfig(command="excursion", seed=5, n_paths=4000))
        assert list(res.rows[0]) == ["t", "lhs", "se", "target", "ratio"]
        assert len(res.rows) == 3

    def test_excursion_thresholds_of_neighbouring_seeds_share_no_stream(self, monkeypatch):
        import measura.excursion as excursion

        seeds = []

        def fake_lhs(F, eps, n_paths, dt, horizon, seed):
            seeds.append(seed)
            return 1.0, 0.1

        monkeypatch.setattr(excursion, "empirical_lhs", fake_lhs)
        for root in (7, 8):
            run(ExperimentConfig(command="excursion", seed=root))
        assert len(seeds) == 6 and len(set(seeds)) == 6


class TestMain:
    def test_usage_error_exit_code(self, capsys):
        assert main(["--command", "excursion"]) == 2  # missing seed
        assert "seed" in capsys.readouterr().err

    def test_end_to_end_writes_file(self, tmp_path, capsys):
        out = str(tmp_path / "frag.csv")
        code = main(["--command", "fragmentation", "--out", out])
        assert code == 0 and os.path.exists(out)
        assert "PASS" in capsys.readouterr().out

    def test_out_into_missing_directory_is_usage_error(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "frag.csv")
        assert main(["--command", "fragmentation", "--out", out]) == 2
        assert "out" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_workers_env_is_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MEASURA_WORKERS", "abc")
        assert main(["--command", "fragmentation", "--out", str(tmp_path / "frag.csv")]) == 0

    def test_out_naming_a_directory_is_usage_error(self, tmp_path, capsys):
        assert main(["--command", "fragmentation", "--out", str(tmp_path)]) == 2
        assert "out" in capsys.readouterr().err

    def test_default_out_naming_a_directory_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "fragmentation.csv").mkdir()
        assert main(["--command", "fragmentation"]) == 2
        assert "out" in capsys.readouterr().err

    def test_sw_approx_fractional_degree_budget_is_usage_error(self, tmp_path, capsys):
        # sw-approx takes no degree budget: --m-max is no flag, so the parser refuses it
        out = tmp_path / "sw.csv"
        with pytest.raises(SystemExit) as exc:
            main(["--command", "sw-approx", "--m-max", "0.5", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --m-max 0.5" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_eps_is_usage_error(self, tmp_path, capsys):
        # the excursion claim holds at its own eps alone: --eps is no flag, so the parser refuses it
        out = tmp_path / "exc.csv"
        with pytest.raises(SystemExit) as exc:
            main(["--command", "excursion", "--seed", "1", "--eps", "inf", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --eps inf" in capsys.readouterr().err
        assert not out.exists()

    def test_levy_recover_non_convergence_is_a_fail_verdict(self, tmp_path, capsys, monkeypatch):
        # the claim's schedule ends at 2 (the fits disagree) or at 1e-160 (m^-2 overflows)
        import measura.levy as levy

        schedule = levy.default_m_schedule
        for m_max in (2.0, 1e-160):
            monkeypatch.setattr(levy, "default_m_schedule", lambda m=m_max: schedule(m))
            out = tmp_path / f"levy-{m_max}.json"
            assert main(["--command", "levy-recover", "--format", "json", "--out", str(out)]) == 1
            captured = capsys.readouterr()
            assert "FAIL  converged" in captured.out and "non-convergent" in captured.err
            assert "Traceback" not in captured.err
            doc = json.loads(out.read_text())
            assert doc["rows"] == [] and doc["verdicts"] == {"converged": False}

    def test_levy_recover_overflowing_schedule_is_a_fail_verdict(self, tmp_path, capsys, monkeypatch):
        # a schedule up to 1e300 overflows the exponent; NaN fits are not convergence
        import measura.levy as levy

        schedule = levy.default_m_schedule
        monkeypatch.setattr(levy, "default_m_schedule", lambda: schedule(1e300))
        out = tmp_path / "levy.csv"
        with pytest.warns(RuntimeWarning, match="overflow"):
            code = main(["--command", "levy-recover", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert "FAIL  converged" in captured.out and "non-convergent" in captured.err
        assert out.read_text() == "\n"

    def test_sw_approx_exhausted_budget_is_a_fail_verdict(self, tmp_path, capsys, monkeypatch):
        # run() turns the claim's NonConvergenceError into a failed verdict, without a traceback
        import measura.cli as cli

        claim = cli.sw_approx_claim
        monkeypatch.setattr(cli, "sw_approx_claim", lambda degree_budget: claim(3))
        out = tmp_path / "sw.csv"
        assert main(["--command", "sw-approx", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "FAIL  converged" in captured.out and "budget exhausted" in captured.err
        assert "Traceback" not in captured.err
        assert out.read_text() == "\n"

    def test_excursion_has_no_step_flag(self, tmp_path, capsys):
        out = tmp_path / "exc.csv"
        with pytest.raises(SystemExit) as exc:
            main(["--command", "excursion", "--seed", "1", "--dt", "1e-4", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --dt 1e-4" in capsys.readouterr().err
        assert not out.exists()

    def test_excursion_too_few_paths_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "exc.csv"
        assert main(["--command", "excursion", "--seed", "1", "--n-paths", "50", "--out", str(out)]) == 2
        assert "n-paths" in capsys.readouterr().err
        assert not out.exists()

    def test_prohorov_oracle_runs_500_instances_and_reads_no_n_paths(self, tmp_path, capsys):
        # a shorter run only wrote a prefix of the 500 rows
        out = tmp_path / "po.csv"
        assert main(["--command", "prohorov-oracle", "--seed", "7", "--n-paths", "200", "--out", str(out)]) == 2
        assert "n-paths: not read by prohorov-oracle" in capsys.readouterr().err
        assert not out.exists()
        assert ExperimentConfig(command="excursion", seed=7).echo()["n_paths"] == 100_000
        res = run(ExperimentConfig(command="prohorov-oracle", seed=7))
        assert len(res.rows) == 500 and res.config == {"command": "prohorov-oracle", "format": "csv", "seed": 7}


SCIPY_BLOCKED_RUN = """
import importlib, pkgutil, sys
import numpy as np


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked: {name}")


sys.meta_path.insert(0, BlockScipy())
import measura
for info in pkgutil.iter_modules(measura.__path__):
    importlib.import_module(f"measura.{info.name}")
from measura import cli
from measura.excursion import ExcursionFunctional, smoothed_bump, smoothed_cutoff, target_rhs

g = lambda y: np.minimum(np.asarray(y, float), 1.0)
F = ExcursionFunctional(h=smoothed_cutoff(1.0, 1.0), h_constant_after=2.0,
                        pairs=((smoothed_bump(0.5, 1.5, 0.1), 1.5, g),))
value, se = target_rhs(F, n_bessel=300, dt=0.05, r_grid=np.linspace(0.0, 8.0, 50), seed=0)
assert value > 0.0 and se > 0.0
assert cli.main(["--command", "fragmentation", "--out", sys.argv[1]]) == 0
print("scipy modules:", sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def _src_env() -> dict:
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


# The measura modules each command leaves loaded, measura and measura.cli aside.
COMMAND_MODULES = {
    "excursion": {"metric_core", "excursion"},
    "sw-approx": {"metric_core", "algebra"},
    "prohorov-oracle": {"metric_core", "measures"},
    "fragmentation": {"metric_core", "algebra", "measures", "fragmentation"},
    "levy-recover": {"metric_core", "algebra", "measures", "levy"},
    "levy-converge": {"metric_core", "algebra", "measures", "levy"},
    "random-measure": {"metric_core", "algebra", "measures", "levy"},
}
PRINT_MEASURA_MODULES = "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'measura')))"


def _run_fresh(code: str, *argv: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter with measura from src/."""
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=_src_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestStartup:
    def test_package_import_loads_no_submodule(self):
        assert _run_fresh("import sys, measura; " + PRINT_MEASURA_MODULES).split() == ["measura"]

    def test_cli_import_loads_only_metric_core(self):
        out = _run_fresh("import sys, measura.cli; " + PRINT_MEASURA_MODULES)
        assert out.split() == ["measura", "measura.cli", "measura.metric_core"]

    @pytest.mark.parametrize("command", COMMAND_MODULES)
    def test_a_command_loads_only_its_modules(self, command, tmp_path):
        argv = ["--command", command, "--out", str(tmp_path / "out.csv")]
        argv += {"excursion": ["--seed", "1", "--n-paths", "2000"], "prohorov-oracle": ["--seed", "1"]}.get(command, [])
        out = _run_fresh("import sys; from measura.cli import main; main(sys.argv[1:]); " + PRINT_MEASURA_MODULES,
                         *argv)
        expected = {"measura", "measura.cli", *(f"measura.{m}" for m in COMMAND_MODULES[command])}
        assert out.splitlines()[-1].split() == sorted(expected)

    def test_every_export_resolves_and_is_listed(self):
        code = ("import measura; listed = dir(measura); "
                "print(all(getattr(measura, n) is not None and n in listed for n in measura.__all__))")
        assert _run_fresh(code).strip() == "True"

    def test_star_import_binds_every_export(self):
        code = "import measura; from measura import *; print(sorted(set(measura.__all__) - set(globals())))"
        assert _run_fresh(code).strip() == "[]"

    def test_non_convergence_error_is_one_class(self):
        code = ("import measura, measura.algebra, measura.metric_core; "
                "print(measura.NonConvergenceError is measura.algebra.NonConvergenceError "
                "is measura.metric_core.NonConvergenceError)")
        assert _run_fresh(code).strip() == "True"

    def test_import_loads_no_scipy(self, tmp_path):
        # every module, a one-pair target and a command run with scipy unimportable
        out = tmp_path / "witness.csv"
        proc = subprocess.run([sys.executable, "-c", SCIPY_BLOCKED_RUN, str(out)], env=_src_env(), capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "scipy modules: []"
        assert out.read_text().startswith("n,")

    def test_prohorov_and_excursion_metric_load_no_numpy_ma(self):
        # plain np.unique and np.union1d import numpy.ma through np.ma.is_masked
        code = ("import sys, numpy; print('numpy.ma' in sys.modules); import measura; "
                "from measura.metric_core import real_line, sample_metric_axioms, sup_norm_space; "
                "from test_metric_core import _criterion_12_spaces; "
                "nu = measura.AtomicMeasure.from_atoms(real_line(), [(0.0, 1.0), (0.5, 0.5)]); "
                "mu = measura.AtomicMeasure.from_atoms(real_line(), [(0.2, 1.0)]); "
                "e = measura.ExcursionPath([0.0, 0.1, 0.2], [0.4, 0.9, 0.0], zeta=0.2); "
                "f = measura.ExcursionPath([0.0, 0.25], [0.3, 0.6], zeta=float('inf')); "
                "assert measura.prohorov_distance(nu, mu) > 0.0 and measura.excursion_metric(e, f) > 0.0; "
                "rng = numpy.random.default_rng(1212); "
                "assert all(sample_metric_axioms(s, p, 2000, rng, tol=1e-9).ok for s, p in _criterion_12_spaces(rng)); "
                "big = [measura.AtomicMeasure.from_atoms(sup_norm_space(2), [(x, 1.0) for x in rng.uniform(-2, 2, (200, 2))]) "
                "for _ in range(2)]; "
                "assert measura.prohorov_distance(*big) > 0.0; "
                "print('numpy.ma' in sys.modules)")
        env = _src_env()
        env["PYTHONPATH"] = os.pathsep.join((env["PYTHONPATH"], str(Path(__file__).resolve().parent)))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        numpy_alone, after = proc.stdout.split()
        if numpy_alone == "True":
            pytest.skip("import numpy alone loads numpy.ma")
        assert after == "False"

    def test_cli_import_loads_no_numpy_polynomial(self):
        # the Gauss-Legendre rules are a module table in measura.excursion, not leggauss calls,
        # so start-up loads no numpy.polynomial
        code = "import sys, measura.cli; print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))"
        proc = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
