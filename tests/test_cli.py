import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qscat import cli
from qscat.errors import ClosedFormMismatch, InvariantViolation

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    cert = json.loads(out) if out.strip() else None
    return code, cert


def strip_timing(cert):
    out = dict(cert)
    out.pop("wall_time_s", None)
    return out


def test_field_selftest(capsys):
    code, cert = run_cli(capsys, "field-selftest")
    assert code == 0
    assert cert["schema"] == 1
    assert cert["ok"] is True
    assert cert["result"]["checks"]["trace_kernel_dim"] == 4
    assert cert["config"]["modulus_hex"] == "b5"


def test_verify_scattered_fast_and_sampled_oracle(capsys):
    code, cert = run_cli(
        capsys,
        "verify-scattered",
        "--order",
        "2",
        "--oracle",
        "sampled",
        "--samples",
        "50",
        "--seed",
        "9",
    )
    assert code == 0
    fast = cert["result"]["fast"]
    assert fast["ok"] and fast["checked_count"] == 97_155
    oracle = cert["result"]["oracle"]
    assert oracle["ok"] and oracle["mode"] == "sampled"


def test_saturating_rho0_refutes_with_exit_1(capsys):
    code, cert = run_cli(capsys, "saturating", "--rho", "0")
    assert code == 1
    v = cert["result"]["verdict"]
    assert not v["ok"]
    assert v["witness"]["kind"] == "uncovered_point"
    assert cert["result"]["linear_set_size"] == 255
    # round-trip: re-verify the witness from the parsed certificate
    from qscat.field import default_field
    from qscat.saturate import linear_set_points
    from qscat.scatter import build_Us

    F = default_field(cert["config"]["h"])
    coords = tuple(F.from_hex(hx) for hx in v["witness"]["coords"])
    S = linear_set_points(build_Us(F, 1))
    span_points = {tuple(int(c) for c in row) for row in S.coords}
    assert coords not in span_points  # rho = 0 marks exactly the S points
    assert v["witness"]["point_id"] not in set(int(i) for i in S.ids)


def test_equivalence_command(capsys):
    code, cert = run_cli(capsys, "equivalence")
    assert code == 0
    res = cert["result"]
    assert res["sec2_maps_U5prime_to_U1"]
    assert res["U5prime_differs_from_U1"]
    assert res["dual_equivalence"]["ok"]


def test_verify_dual_command(capsys):
    code, cert = run_cli(capsys, "verify-dual")
    assert code == 0
    res = cert["result"]
    assert res["equivalence"]["ok"]
    assert res["dual_closed_form"].startswith("4 6 1 b5")
    assert res["gamma_perp"].splitlines()[0] == "8 6 1 b5"


def test_spectrum_command_points(capsys):
    code, cert = run_cli(capsys, "spectrum", "--codim", "3")
    assert code == 0
    assert cert["result"]["weights"] == {"0": 266050, "1": 255}
    assert cert["result"]["max_weight"] == 1


def test_system_count_command(capsys):
    code, cert = run_cli(
        capsys, "system-count", "--count", "200", "--seed", "3"
    )
    assert code == 0
    res = cert["result"]
    assert res["max_solution_count"] <= 4
    assert res["weight_cross_check"] is True
    assert sum(res["case_buckets"].values()) == 200


def test_code_profile_command(capsys):
    code, cert = run_cli(capsys, "code-profile", "--workers", "2")
    assert code == 0
    p = cert["result"]["profile"]
    assert p["n"] == 8 and p["k"] == 4 and p["m"] == 6
    assert p["d"] == 4
    assert p["d_rho"] == [4, 6, 7, 8]
    assert p["is_mrd"] is True
    assert p["rho_mrd"] == [False, True, True, True]
    assert p["near_mrd"] is True
    assert p["mode"] == "exhaustive"


def test_work_limit_exit_2(capsys):
    code, _ = run_cli(capsys, "verify-scattered", "--h", "3", "--oracle", "off")
    assert code == 2


def test_bad_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense line\n")
    code, _ = run_cli(capsys, "field-selftest", "--config", str(cfg))
    assert code == 2
    cfg.write_text("h=notanint\n")
    code, _ = run_cli(capsys, "field-selftest", "--config", str(cfg))
    assert code == 2


def _not_utf8(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"# caf\xe9\nh=1\n")
    return path


@pytest.mark.parametrize("flag, make", [
    ("--config", lambda tmp: tmp / "missing.cfg"),
    ("--config", lambda tmp: tmp),
    ("--config", _not_utf8),
    ("--out", lambda tmp: tmp / "missing" / "cert.json"),
    ("--out", lambda tmp: tmp),
], ids=["config-missing", "config-directory", "config-not-utf8", "out-missing-dir",
        "out-directory"])
def test_unusable_file_paths_exit_2(tmp_path, capsys, flag, make):
    """A --config that cannot be read or an --out that cannot be written
    is a config error: exit 2, one error line, no certificate."""
    code = cli.main(["field-selftest", flag, str(make(tmp_path))])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error" in line]
    assert len(errors) == 1 and errors[0].startswith("qscat: error: ")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
@pytest.mark.parametrize("seed", [-1, 1 << 64], ids=["minus1", "2^64"])
def test_out_of_range_seed_exit_2(tmp_path, flags, seed):
    """A seed outside [0, 2^64) is a config error, from the flag and from
    --config, not a replay of the seed mod 2^64; also under -O."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed=%d\n" % seed)
    for args in (["--seed", str(seed)], ["--config", str(cfg)]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "qscat.cli",
             "system-count", "--count", "5", *args],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.splitlines() == ["qscat: error: seed must be in 0..2^64 - 1"]


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
@pytest.mark.parametrize("key,value", [("mode", "bogus"), ("oracle", "nope")])
def test_unknown_choice_exit_2(tmp_path, flags, key, value):
    """An unknown mode or oracle is a config error from the flag and from
    --config alike, not a certificate labelled with it; also under -O."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    cfg = tmp_path / "choice.cfg"
    cfg.write_text("%s=%s\n" % (key, value))
    for args in (["--" + key, value], ["--config", str(cfg)]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "qscat.cli",
             "verify-scattered", "--order", "1", *args],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert value in proc.stderr


def test_negative_rho_exit_2(capsys):
    code, cert = run_cli(capsys, "saturating", "--rho", "-1")
    assert code == 2 and cert is None


def test_vacuous_rho_exit_2(capsys):
    """rho + 1 = 256 exceeds the 255 points of L(U): there is no subset to
    scan, so no certificate, not a refutation with checked_count 0."""
    code = cli.main(["saturating", "--rho", "255"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "rho" in err


def test_saturating_under_optimize_flag():
    """2-saturation certifies with asserts stripped (python -O)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "qscat.cli",
         "saturating", "--rho", "2", "--workers", "2"],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    reference = json.loads(
        (ROOT / "perfbench" / "reference" / "saturating_q2.json").read_text()
    )
    result = json.loads(proc.stdout)["result"]
    assert json.dumps(result, sort_keys=True) == json.dumps(
        reference["result"], sort_keys=True
    )


@pytest.mark.parametrize("workers", ["1", "2"])
def test_saturating_u5_matches_the_u1_reference(capsys, workers):
    """U_5 is GL-equivalent to U_1, so L(U_5) is 2-saturating with the
    same counts: the result equals the stored U_1 reference's."""
    code, cert = run_cli(capsys, "saturating", "--s", "5", "--rho", "2",
                         "--workers", workers)
    reference = json.loads(
        (ROOT / "perfbench" / "reference" / "saturating_q2.json").read_text()
    )
    assert code == 0
    assert json.dumps(cert["result"], sort_keys=True) == json.dumps(
        reference["result"], sort_keys=True
    )


@pytest.mark.parametrize("args,code,golden", [
    (["--h", "3", "--samples", "300", "--seed", "42"], 0, "verify_scattered_q8_sampled"),
    (["--h", "1", "--order", "3", "--samples", "500", "--seed", "5"], 1, "sampled_h1_order3"),
])
def test_sampled_under_optimize_flag(args, code, golden):
    """The batched sampled tests and their witness re-check hold under
    python -O: the q = 8 evidence run and the q = 2 order-3 refutation."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "qscat.cli", "verify-scattered",
         "--mode", "sampled", "--oracle", "sampled"] + args,
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == code, proc.stderr
    result = json.loads(proc.stdout)["result"]
    expected = (ROOT / "tests" / "golden" / ("%s.json" % golden)).read_text()
    assert json.dumps(result, sort_keys=True, indent=2) + "\n" == expected


_Q8_VERIFY = ["verify-scattered", "--h", "3", "--mode", "exhaustive",
              "--oracle", "exhaustive", "--budget", str(10**30)]
_Q8_SATURATING = ["saturating", "--h", "3"]
_Q8_FIXED_SPECTRUM = ["spectrum", "--h", "3", "--fixed-only", "--codim", "1"]


# the verify-scattered ids keep the names the suite has always printed
@pytest.mark.parametrize("flags,args", [
    pytest.param([], _Q8_VERIFY, id="flags0"),
    pytest.param(["-O"], _Q8_VERIFY, id="flags1"),
    pytest.param([], _Q8_SATURATING, id="saturating"),
    pytest.param(["-O"], _Q8_SATURATING, id="saturating-O"),
    pytest.param([], _Q8_FIXED_SPECTRUM, id="spectrum-fixed"),
    pytest.param(["-O"], _Q8_FIXED_SPECTRUM, id="spectrum-fixed-O"),
])
def test_exhaustive_q8_exit_2(flags, args):
    """An exhaustive q = 8 run whose budget admits it is a config error with
    one error line, not a scalar scan that never ends; also under -O."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "qscat.cli", *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    err = proc.stderr.splitlines()
    assert err[0] == "qscat: running %s" % args[0]
    assert len(err) == 2 and err[1].startswith("qscat: error: ")
    assert "q = 8" in err[1]


def test_bad_modulus_exit_2(capsys):
    code, _ = run_cli(capsys, "field-selftest", "--modulus", "zz")
    assert code == 2
    # reducible modulus: x^6 + x^2 is 0x44 -> little endian nibbles "44"
    code, _ = run_cli(capsys, "field-selftest", "--modulus", "44")
    assert code == 2


def test_sampled_past_int64_fields_exit_2(capsys):
    """h = 7 builds GF(2^42) from a user modulus (x^42 + x^5 + x^2 + x + 1),
    whose products do not fit the int64 batches: a config error."""
    code, cert = run_cli(
        capsys, "verify-scattered", "--h", "7", "--modulus", "72000000004",
        "--mode", "sampled", "--seed", "1", "--samples", "10",
    )
    assert code == 2 and cert is None


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("codim=3\nworkers=1\nseed=5\n")
    code, cert = run_cli(capsys, "spectrum", "--config", str(cfg))
    assert code == 0 and cert["result"]["codim"] == 3
    code, cert = run_cli(
        capsys, "spectrum", "--config", str(cfg), "--codim", "4"
    )
    assert code == 0 and cert["result"]["codim"] == 4
    assert cert["result"]["weights"] == {"0": 1}


def test_certificate_determinism(capsys):
    _, a = run_cli(capsys, "spectrum", "--codim", "3")
    _, b = run_cli(capsys, "spectrum", "--codim", "3")
    assert strip_timing(a) == strip_timing(b)


def test_certificate_worker_independence(capsys):
    certs = []
    for w in ("1", "2", "4"):
        _, c = run_cli(capsys, "spectrum", "--codim", "3", "--workers", w)
        certs.append(strip_timing(c))
    assert certs[0]["result"] == certs[1]["result"] == certs[2]["result"]


def test_out_file(tmp_path, capsys):
    path = tmp_path / "cert.json"
    code, cert = run_cli(capsys, "field-selftest", "--out", str(path))
    assert code == 0
    on_disk = json.loads(path.read_text())
    assert on_disk == cert


# one value per setting, each other than its default
KEY_VALUES = {
    "h": "3", "s": "5", "modulus": "b5", "order": "1", "rho": "1",
    "codim": "2", "mode": "sampled", "oracle": "off", "samples": "7",
    "seed": "9", "count": "3", "workers": "2", "budget": "5", "out": "c.json",
}


def test_flag_and_config_line_resolve_alike(tmp_path):
    """Every key of the table reads the same from `--key v` and from a
    `key=v` config line, and moves cfg off its defaults."""
    assert set(KEY_VALUES) == set(cli._KEYS)
    parser = cli.build_parser()
    defaults = cli.resolve_config(parser.parse_args(["field-selftest"]))
    path = tmp_path / "run.cfg"
    for key, value in KEY_VALUES.items():
        path.write_text("%s=%s\n" % (key, value))
        flag = cli.resolve_config(parser.parse_args(["spectrum", "--" + key, value]))
        line = cli.resolve_config(parser.parse_args(["spectrum", "--config", str(path)]))
        assert flag == line != defaults, key
        assert flag[key] == cli._KEYS[key][0](value)


def test_parser_long_options_are_the_key_table():
    options = {
        opt
        for action in cli.build_parser()._actions
        for opt in action.option_strings
        if opt.startswith("--")
    }
    # --help is argparse's own
    assert options == {"--" + key for key in cli._KEYS} | {
        "--fixed-only", "--config", "--help",
    }


def test_degree_setting_is_gone_exit_2(tmp_path, capsys):
    """The field degree is 6h: neither --degree nor degree= is a setting."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["field-selftest", "--degree", "6"])
    assert exc.value.code == 2 and capsys.readouterr().out == ""
    cfg = tmp_path / "degree.cfg"
    cfg.write_text("degree=6\n")
    assert cli.main(["field-selftest", "--config", str(cfg)]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("key", ["fixed_only", "config"])
def test_flag_only_options_are_no_config_keys(tmp_path, capsys, key):
    """--fixed-only and --config are flags only: a config line naming
    either is an unknown key, exit 2, with no certificate."""
    cfg = tmp_path / "flag.cfg"
    cfg.write_text("%s = 1\n" % key)
    assert cli.main(["field-selftest", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unknown key %r" % key in captured.err


@pytest.mark.parametrize("key", ["modulus", "out"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_empty_value_exit_2(tmp_path, capsys, key, source):
    """An empty --modulus or --out is a config error, not "unset"."""
    if source == "flag":
        args = ["--" + key, ""]
    else:
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("%s=\n" % key)
        args = ["--config", str(cfg)]
    code = cli.main(["field-selftest", *args])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines()[-1] == "qscat: error: %s must not be empty" % key


def test_commands_that_do_not_scan_load_no_numpy():
    """numpy loads with the commands that scan, not at start-up: these
    commands and a config error run without it."""
    argvs = [
        ["field-selftest"], ["equivalence"], ["verify-dual"],
        ["system-count", "--count", "5"], ["system-count", "--seed", "-1"],
    ]
    code = (
        "import contextlib, io, sys\n"
        "from qscat import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(argv) for argv in %r]\n"
        "print(codes, 'numpy' in sys.modules)\n" % argvs
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0, 0, 2] False\n"


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
@pytest.mark.parametrize("stdout", ["pipe-read-end-closed", "fd-1-closed"])
def test_closed_stdout_exit_2(flags, stdout, tmp_path):
    """A certificate that cannot reach stdout is a write error (exit 2),
    like an unwritable --out, not a refutation and not a traceback; the
    --out file written before it is removed, so no certificate is left."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    read_end, write_end = os.pipe()
    os.close(read_end)
    if stdout == "fd-1-closed":
        how = {"preexec_fn": lambda: os.close(1)}
    else:
        how = {"stdout": write_end}
    try:
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "qscat.cli", "field-selftest",
             "--out", str(tmp_path / "x.json")],
            env=env, stderr=subprocess.PIPE, text=True, timeout=120, **how,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1].startswith("qscat: error: ")
    assert not (tmp_path / "x.json").exists()



@pytest.mark.parametrize(
    "argv",
    [
        ("verify-scattered", "--s", "3"),
        ("spectrum", "--codim", "9"),
        ("spectrum", "--codim", "-1"),
        ("verify-scattered", "--order", "-1"),
        ("verify-scattered", "--order", "0"),
        ("verify-scattered", "--order", "8"),
        ("verify-scattered", "--mode", "sampled", "--samples", "0", "--seed", "1"),
        ("system-count", "--count", "-5"),
        ("spectrum", "--codim", "3", "--workers", "0"),
        ("spectrum", "--codim", "3", "--workers", str(10**9)),
        # r = 4: no 4-dim proper subspace, so an order-4 verdict is vacuous
        ("verify-scattered", "--order", "4"),
    ],
)
def test_invalid_input_exit_2(argv, capsys, monkeypatch):
    from qscat import parallel

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was requested")

    monkeypatch.setattr(parallel.multiprocessing, "get_context", no_pool)
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("qscat: error: ")


@pytest.mark.parametrize("exc", [InvariantViolation, ClosedFormMismatch, RuntimeError])
def test_internal_error_exit_3(exc, capsys, monkeypatch):
    def broken(cfg, field):
        raise exc("planted failure")

    monkeypatch.setitem(cli._HANDLERS, "field-selftest", broken)
    code = cli.main(["field-selftest"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "qscat: internal error: %s: planted failure" % exc.__name__
    )


def test_verify_dual_closed_form_mismatch_exit_3(capsys, monkeypatch):
    """A scene that disagrees with a closed form is a failed cross-check:
    exit 3 and no certificate, not a refutation without a witness."""
    from qscat import dual

    monkeypatch.setattr(dual, "primal_closed_form", dual.dual_closed_form_1)
    code = cli.main(["verify-dual"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "ClosedFormMismatch" in captured.err.splitlines()[-1]


def test_equivalence_sec2_mismatch_exit_3(capsys, monkeypatch):
    """The Section 2 matrix is a constant of the paper: one that does not
    map U'_5 onto U_1 is a failed cross-check, exit 3 and no certificate."""
    from qscat import scatter

    identity = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    monkeypatch.setattr(scatter, "SEC2_EQUIV_MATRIX", identity)
    code = cli.main(["equivalence"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "ClosedFormMismatch" in captured.err.splitlines()[-1]


def test_system_count_weight_disagreement_exit_3(capsys, monkeypatch):
    """A solution count that differs from q^weight(U, W) is exit 3, and
    the message names the tuple's coefficients."""
    from qscat import scatter

    monkeypatch.setattr(scatter, "count_solutions", lambda sysm: 0)
    code = cli.main(["system-count", "--count", "5"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    last = captured.err.splitlines()[-1]
    assert "InvariantViolation" in last and "at coefficients" in last


REFERENCE_RUNS = {
    "code_profile_q2": ["code-profile"],
    "verify_scattered_q2": ["verify-scattered", "--order", "2", "--oracle", "exhaustive"],
}


def _reference_result(name):
    reference = json.loads((ROOT / "perfbench" / "reference" / (name + ".json")).read_text())
    return json.dumps(reference["result"], sort_keys=True)


@pytest.mark.parametrize("name", sorted(REFERENCE_RUNS))
@pytest.mark.parametrize("workers", [1, 2])
def test_q2_certificates_match_reference(name, workers, capsys):
    code, cert = run_cli(capsys, *REFERENCE_RUNS[name], "--workers", str(workers))
    assert code == 0
    assert json.dumps(cert["result"], sort_keys=True) == _reference_result(name)


def test_code_profile_under_optimize_flag():
    """The code profile and its closed-form checks hold under python -O."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "qscat.cli", "code-profile", "--workers", "2"],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert json.dumps(result, sort_keys=True) == _reference_result("code_profile_q2")


def test_corrupted_histogram_exit_3(capsys, monkeypatch):
    """A line histogram that breaks the incidence count is exit 3."""
    from qscat import gfbatch

    real = gfbatch.DualCodimScanner.iter_weights
    hits = []

    def corrupted(self, d, *args, **kwargs):
        for pos, w in real(self, d, *args, **kwargs):
            if 0 in pos:
                w = w.copy()
                at = np.asarray(pos) == 0
                w[at] += 1  # one line too heavy
                hits.append(int(at.sum()))
            yield pos, w

    monkeypatch.setattr(gfbatch.DualCodimScanner, "iter_weights", corrupted)
    code = cli.main(["spectrum", "--codim", "2"])
    captured = capsys.readouterr()
    assert hits == [1]  # the fault hit exactly one position
    assert code == 3
    assert captured.out == ""
    assert "ClosedFormMismatch" in captured.err.splitlines()[-1]
