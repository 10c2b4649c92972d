"""Command-line front end and JSON certificate emission.

Standard output carries exactly one JSON certificate; progress notes go
to standard error.  Each setting of `_KEYS` is declared once there and
is read from its flag or from a --config line alike; `--fixed-only` and
`--config` are flags only, and a config line naming either is an unknown
key (exit 2).  `run` builds the field GF(2^(6h)) once from the
configuration and hands it to the command's handler.  Exit codes: 0 =
all checked properties hold, 1 = a property was refuted (the certificate
carries a witness), 2 = configuration or work-limit error, an unreadable
--config, an empty --modulus or --out, and a certificate that cannot be
written to --out or to stdout included (no certificate is left on stdout
or in --out), 3 = internal error, such as a failed cross-check between
two algorithms (a one-line message on stderr, no certificate).
"""

import argparse
import json
import os
import sys
import time

from . import __version__
from .errors import ClosedFormMismatch, ConfigError, InvariantViolation, QscatError
from .errors import WorkLimitExceeded
from .field import DEFAULT_MODULI, BinaryField, from_nibble_hex, poly_is_irreducible
from .linalg import apply_gl, rows_to_text, weight
from .rng import XorShift64Star
from . import dual as dual_mod
from . import rankcode
from . import scatter

SCHEMA = 1
MAX_WORKERS = 64  # fixed, so that a config is valid on every host

# The one declaration of each setting, as a flag and as a --config key:
# key -> (type, default, choices or None, help).  An explicit flag wins
# over the file, the file over the default.
_KEYS = {
    "h": (int, 1, None, "tower exponent: q = 2^h, the field is GF(2^(6h))"),
    "s": (int, 1, None, "automorphism index, 1 or 5"),
    "modulus": (str, None, None, "modulus as little-endian nibble hex"),
    "order": (int, 2, None, "scattering order to certify"),
    "rho": (int, 2, None, "saturation parameter"),
    "codim": (int, 1, None, "spectrum codimension"),
    "mode": (str, "exhaustive", scatter.MODES, "how the fast test runs"),
    "oracle": (
        str, "sampled", ("off",) + scatter.MODES,
        "oracle cross-check flavor for verify-scattered",
    ),
    "samples": (int, 1000, None, "samples per sampled test"),
    "seed": (int, 1, None, "xorshift64* seed, 0..2^64 - 1"),
    "count": (int, 1000, None, "random tuples for system-count"),
    "workers": (int, 1, None, "worker processes, 1..%d" % MAX_WORKERS),
    "budget": (int, scatter.DEFAULT_BUDGET, None, "exhaustive work limit"),
    "out": (str, None, None, "also write the certificate to this path"),
}


def load_config_file(path):
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    out = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("%s:%d: expected key=value" % (path, lineno))
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError("%s:%d: unknown key %r" % (path, lineno, key))
        try:
            out[key] = _KEYS[key][0](value)
        except ValueError:
            raise ConfigError(
                "%s:%d: bad value for %s: %r" % (path, lineno, key, value)
            )
    return out


def write_certificate(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise ConfigError("cannot write the certificate: %s" % exc)


def print_certificate(text):
    """Print to stdout; a closed or broken stdout is a config error too."""
    if sys.stdout is None:  # the process started with fd 1 closed
        raise ConfigError("cannot write the certificate: stdout is closed")
    try:
        print(text, flush=True)
    except OSError as exc:
        # so that the flush at exit cannot fail on stdout a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise ConfigError("cannot write the certificate: %s" % exc)


def build_parser():
    p = argparse.ArgumentParser(
        prog="qscat",
        description="certify 2-scattered subspaces of F_{q^6}^4 (q = 2^h, h odd) "
        "and their rank-metric codes",
    )
    p.add_argument("command", choices=_HANDLERS)
    for key, (typ, default, choices, text) in _KEYS.items():
        if default is not None:
            text += " (default %s)" % default
        p.add_argument("--" + key, type=typ, choices=choices, help=text)
    p.add_argument("--fixed-only", action="store_true", dest="fixed_only",
                   help="spectrum: Frobenius-fixed subspaces only")
    p.add_argument("--config", help="flat key=value config file")
    return p


def resolve_config(ns):
    cfg = {key: spec[1] for key, spec in _KEYS.items()}
    if ns.config:
        cfg.update(load_config_file(ns.config))
    for key in _KEYS:
        val = getattr(ns, key)
        if val is not None:
            cfg[key] = val
    cfg["fixed_only"] = ns.fixed_only
    for key, (_, _, choices, _) in _KEYS.items():
        if cfg[key] == "":
            raise ConfigError("%s must not be empty" % key)
        if choices and cfg[key] not in choices:
            raise ConfigError(
                "%s must be one of %s, got %r" % (key, ", ".join(choices), cfg[key])
            )
    if not 1 <= cfg["workers"] <= MAX_WORKERS:
        raise ConfigError("workers must be in 1..%d" % MAX_WORKERS)
    if cfg["s"] not in (1, 5):
        raise ConfigError("s must be 1 or 5")
    if not 1 <= cfg["order"] < 4:
        raise ConfigError("order must be in 1..3 (U_s lies in F_{q^6}^r, r = 4)")
    if not 0 <= cfg["codim"] <= 4:
        raise ConfigError("codim must be in 0..4")
    if cfg["rho"] < 0:
        raise ConfigError("rho must be >= 0")
    if cfg["samples"] < 1:
        raise ConfigError("samples must be >= 1")
    if cfg["count"] < 1:
        raise ConfigError("count must be >= 1")
    if not 0 <= cfg["seed"] < 1 << 64:
        raise ConfigError("seed must be in 0..2^64 - 1")
    return cfg


def field_from_config(cfg):
    text = cfg["modulus"]
    try:
        modulus = None if text is None else from_nibble_hex(text)
    except ValueError:
        raise ConfigError("bad modulus hex: %r" % text)
    try:
        return BinaryField(cfg["h"], modulus)
    except QscatError as exc:
        raise ConfigError("field construction failed: %s" % exc)


def config_echo(cfg, field):
    return {
        "h": cfg["h"],
        "s": cfg["s"],
        "degree": field.e,
        "modulus_hex": field.modulus_hex(),
        "mode": cfg["mode"],
        "workers": cfg["workers"],
        "budget": cfg["budget"],
        "seed": cfg["seed"],
    }


# -- command handlers --------------------------------------------------------


def cmd_field_selftest(cfg, field):
    rng = XorShift64Star(cfg["seed"])
    checks = {}
    checks["modulus_irreducible"] = poly_is_irreducible(field.modulus)
    ok = True
    for _ in range(256):
        a = field.random_element(rng)
        b = field.random_element(rng)
        ok &= field.frob(a, 6) == a
        ok &= field.frob(a ^ b, 1) == (field.frob(a, 1) ^ field.frob(b, 1))
        ok &= field.in_subfield(field.rel_trace(a), 2)
        if a:
            ok &= field.mul(a, field.inv(a)) == 1
    checks["frobenius_and_traces"] = ok
    checks["trace_kernel_dim"] = len(field.trace_kernel_basis())
    checks["default_moduli_irreducible"] = all(
        poly_is_irreducible(m) for m in DEFAULT_MODULI.values()
    )
    good = (
        checks["modulus_irreducible"]
        and checks["frobenius_and_traces"]
        and checks["trace_kernel_dim"] == 4
        and checks["default_moduli_irreducible"]
    )
    return {"checks": checks}, good


def cmd_verify_scattered(cfg, field):
    U = scatter.build_Us(field, cfg["s"])
    payload = {}
    fast = scatter.is_h_scattered_fast(
        U,
        cfg["order"],
        mode=cfg["mode"],
        samples=cfg["samples"],
        seed=cfg["seed"],
        workers=cfg["workers"],
        budget=cfg["budget"],
    )
    payload["fast"] = fast.to_json()
    ok = fast.ok
    if cfg["oracle"] != "off":
        oracle = scatter.is_h_scattered_oracle(
            U,
            cfg["order"],
            mode=cfg["oracle"],
            samples=cfg["samples"],
            seed=cfg["seed"],
            workers=cfg["workers"],
            budget=cfg["budget"],
        )
        payload["oracle"] = oracle.to_json()
        ok = ok and oracle.ok
    return payload, ok


def cmd_spectrum(cfg, field):
    U = scatter.build_Us(field, cfg["s"])
    hist = scatter.weight_spectrum(
        U,
        cfg["codim"],
        frobenius_fixed_only=cfg["fixed_only"],
        workers=cfg["workers"],
        budget=cfg["budget"],
    )
    payload = {
        "codim": cfg["codim"],
        "frobenius_fixed_only": cfg["fixed_only"],
        "weights": {str(w): c for w, c in sorted(hist.items())},
        "max_weight": max(hist),
        "subspaces": sum(hist.values()),
    }
    return payload, True


def cmd_system_count(cfg, field):
    U = scatter.build_Us(field, cfg["s"])
    rng = XorShift64Star(cfg["seed"])
    q2 = field.q**2
    buckets = {}
    max_count = 0
    violations = []
    for _ in range(cfg["count"]):
        a, b, c, d = (field.random_element(rng) for _ in range(4))
        sysm = scatter.semilinear_system(field, a, b, c, d)
        n = scatter.count_solutions(sysm)
        buckets[sysm.case] = buckets.get(sysm.case, 0) + 1
        max_count = max(max_count, n)
        W = scatter.retta4_subspace(field, a, b, c, d)
        if n != field.q ** weight(U, W):
            raise InvariantViolation(
                "solution count %d differs from q^weight(U, W) at coefficients %s"
                % (n, " ".join(field.to_hex(x) for x in (a, b, c, d)))
            )
        if n > q2:
            violations.append(
                {"coeffs": [field.to_hex(x) for x in (a, b, c, d)], "count": n}
            )
    payload = {
        "tuples": cfg["count"],
        "seed": cfg["seed"],
        "case_buckets": buckets,
        "max_solution_count": max_count,
        "bound_q_squared": q2,
        "weight_cross_check": True,  # a disagreement raised above
        "violations": violations,
    }
    return payload, not violations


def cmd_verify_dual(cfg, field):
    payload = {}
    scene = dual_mod.build_scene(field)
    primal = dual_mod.primal_from_scene(scene)
    dual_sub = dual_mod.dual_from_scene(scene)
    verdict = dual_mod.verify_dual_equivalence(field)
    payload["primal_closed_form"] = rows_to_text(field, 4, primal.basis)
    payload["dual_closed_form"] = rows_to_text(field, 4, dual_sub.basis)
    payload["equivalence_matrix"] = rows_to_text(
        field, 4, dual_mod.DUAL_EQUIV_MATRIX
    )
    payload["equivalence"] = verdict.to_json()
    payload["gamma_perp"] = rows_to_text(field, 8, scene.Gamma_perp.rows)
    return payload, verdict.ok


def cmd_code_profile(cfg, field):
    U = scatter.build_Us(field, cfg["s"])
    C = rankcode.code_from_system(U)
    profile = rankcode.classify(C, workers=cfg["workers"], budget=cfg["budget"])
    return {"profile": profile}, True


def cmd_saturating(cfg, field):
    from . import saturate  # numpy: only the commands that scan load it

    U = scatter.build_Us(field, cfg["s"])
    S = saturate.linear_set_points(U, budget=cfg["budget"])
    inst = saturate.is_rho_saturating(
        S, cfg["rho"], workers=cfg["workers"], budget=cfg["budget"]
    )
    details = inst.verdict.details
    payload = {
        "linear_set_size": details["size_s"],
        "ambient_points": details["ambient_points"],
        "rho": details["rho"],
        "verdict": inst.verdict.to_json(),
    }
    return payload, inst.verdict.ok


def cmd_equivalence(cfg, field):
    U1 = scatter.build_Us(field, 1)
    U5p = scatter.build_U5prime(field)
    if apply_gl(scatter.SEC2_EQUIV_MATRIX, U5p) != U1:
        # a constant of the paper: a broken cross-check, not a refutation
        raise ClosedFormMismatch("the Section 2 matrix does not map U'_5 onto U_1")
    dual_verdict = dual_mod.verify_dual_equivalence(field)
    payload = {
        "sec2_matrix": rows_to_text(field, 4, scatter.SEC2_EQUIV_MATRIX),
        "sec2_maps_U5prime_to_U1": True,
        "U5prime_differs_from_U1": U5p != U1,
        "dual_equivalence": dual_verdict.to_json(),
    }
    return payload, dual_verdict.ok


_HANDLERS = {
    "field-selftest": cmd_field_selftest,
    "verify-scattered": cmd_verify_scattered,
    "spectrum": cmd_spectrum,
    "system-count": cmd_system_count,
    "verify-dual": cmd_verify_dual,
    "code-profile": cmd_code_profile,
    "saturating": cmd_saturating,
    "equivalence": cmd_equivalence,
}


def run(command, cfg):
    """Dispatch one command; returns the certificate dict and ok flag."""
    field = field_from_config(cfg)
    t0 = time.time()
    payload, ok = _HANDLERS[command](cfg, field)
    wall = time.time() - t0
    cert = {
        "schema": SCHEMA,
        "tool": "qscat %s" % __version__,
        "command": command,
        "config": config_echo(cfg, field),
        "ok": ok,
        "result": payload,
        "wall_time_s": round(wall, 3),
    }
    return cert, ok


def main(argv=None):
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        cfg = resolve_config(ns)
        print("qscat: running %s" % ns.command, file=sys.stderr)
        cert, ok = run(ns.command, cfg)
        text = json.dumps(cert, sort_keys=True, indent=2)
        if cfg["out"] is not None:
            # before stdout, so an unwritable path prints no certificate
            write_certificate(cfg["out"], text)
        try:
            print_certificate(text)
        except ConfigError:
            # exit 2 leaves no certificate behind, in --out either
            if cfg["out"] is not None and os.path.isfile(cfg["out"]):
                os.remove(cfg["out"])
            raise
    except (ConfigError, WorkLimitExceeded) as exc:
        print("qscat: error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        # a crash must never read as a refutation (exit 1)
        name = type(exc).__name__
        print("qscat: internal error: %s: %s" % (name, exc), file=sys.stderr)
        return 3
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
