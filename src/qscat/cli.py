"""Command-line front end and JSON certificate emission.

Standard output carries exactly one JSON certificate; progress notes go
to standard error.  `run` builds the field once from the configuration
and hands it to the command's handler.  Exit codes: 0 = all checked
properties hold, 1 = a property was refuted (the certificate carries a
witness), 2 = configuration or work-limit error, an unreadable --config
or an unwritable --out included (nothing is printed on stdout), 3 =
internal error, such as a failed cross-check between two algorithms (a
one-line message on stderr, no certificate).
"""

import argparse
import json
import sys
import time

from . import __version__
from .errors import ConfigError, QscatError, WorkLimitExceeded
from .field import DEFAULT_MODULI, BinaryField, poly_is_irreducible
from .linalg import apply_gl, rows_to_text, weight
from .rng import XorShift64Star
from . import dual as dual_mod
from . import rankcode
from . import saturate
from . import scatter

SCHEMA = 1
MAX_WORKERS = 64  # fixed, so that a config is valid on every host

COMMANDS = (
    "field-selftest",
    "verify-scattered",
    "spectrum",
    "system-count",
    "verify-dual",
    "code-profile",
    "saturating",
    "equivalence",
)

# the values of the choice keys, for flags and config files alike
_CHOICES = {
    "mode": scatter.MODES,
    "oracle": ("off",) + scatter.MODES,
}

_CONFIG_KEYS = {
    "h": int,
    "s": int,
    "degree": int,
    "modulus": str,
    "order": int,
    "rho": int,
    "codim": int,
    "mode": str,
    "oracle": str,
    "samples": int,
    "seed": int,
    "count": int,
    "workers": int,
    "budget": int,
    "out": str,
}

_DEFAULTS = {
    "h": 1,
    "s": 1,
    "order": 2,
    "rho": 2,
    "codim": 1,
    "mode": "exhaustive",
    "oracle": "sampled",
    "samples": 1000,
    "seed": 1,
    "count": 1000,
    "workers": 1,
    "budget": scatter.DEFAULT_BUDGET,
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
        if key not in _CONFIG_KEYS:
            raise ConfigError("%s:%d: unknown key %r" % (path, lineno, key))
        try:
            out[key] = _CONFIG_KEYS[key](value)
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


def build_parser():
    p = argparse.ArgumentParser(
        prog="qscat",
        description="certify 2-scattered subspaces of F_{q^6}^4 (q = 2^h, h odd) "
        "and their rank-metric codes",
    )
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--h", type=int, dest="h", help="tower exponent, q = 2^h")
    p.add_argument("--s", type=int, dest="s", help="automorphism index (1 or 5)")
    p.add_argument("--degree", type=int, help="field degree (defaults to 6h)")
    p.add_argument("--modulus", help="modulus as little-endian nibble hex")
    p.add_argument("--order", type=int, help="scattering order to certify")
    p.add_argument("--rho", type=int, help="saturation parameter")
    p.add_argument("--codim", type=int, help="spectrum codimension")
    p.add_argument("--mode", choices=_CHOICES["mode"])
    p.add_argument(
        "--oracle",
        choices=_CHOICES["oracle"],
        help="oracle cross-check flavor for verify-scattered",
    )
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--count", type=int, help="random tuples for system-count")
    p.add_argument("--workers", type=int)
    p.add_argument("--budget", type=int)
    p.add_argument("--fixed-only", action="store_true", dest="fixed_only")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--out", help="also write the certificate to this path")
    return p


def resolve_config(ns):
    cfg = dict(_DEFAULTS)
    if ns.config:
        cfg.update(load_config_file(ns.config))
    for key in _CONFIG_KEYS:
        val = getattr(ns, key, None)
        if val is not None:
            cfg[key] = val
    cfg["fixed_only"] = bool(getattr(ns, "fixed_only", False))
    if cfg.get("degree") is None:
        cfg["degree"] = 6 * cfg["h"]
    for key, choices in _CHOICES.items():
        if cfg[key] not in choices:
            raise ConfigError(
                "%s must be one of %s, got %r" % (key, ", ".join(choices), cfg[key])
            )
    if cfg["mode"] == "sampled" and cfg.get("seed") is None:
        raise ConfigError("sampled mode requires a seed")
    if not 1 <= cfg["workers"] <= MAX_WORKERS:
        raise ConfigError("workers must be in 1..%d" % MAX_WORKERS)
    if cfg["s"] not in (1, 5):
        raise ConfigError("s must be 1 or 5")
    if not 1 <= cfg["order"] < 8:
        raise ConfigError("order must be in 1..7 (dim_q U_s = 8)")
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
    modulus = None
    if cfg.get("modulus"):
        modulus = 0
        for k, ch in enumerate(cfg["modulus"]):
            try:
                modulus |= int(ch, 16) << (4 * k)
            except ValueError:
                raise ConfigError("bad modulus hex: %r" % cfg["modulus"])
    try:
        return BinaryField(cfg["degree"], modulus, cfg["h"])
    except QscatError as exc:
        raise ConfigError("field construction failed: %s" % exc)


def config_echo(cfg, field):
    return {
        "h": cfg["h"],
        "s": cfg["s"],
        "degree": field.degree,
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
        ok &= field.in_subfield(field.rel_trace(a, 2), 2)
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
    agree = True
    violations = []
    for _ in range(cfg["count"]):
        a, b, c, d = (field.random_element(rng) for _ in range(4))
        sysm = scatter.semilinear_system(field, a, b, c, d)
        n = scatter.count_solutions(sysm)
        buckets[sysm.case] = buckets.get(sysm.case, 0) + 1
        max_count = max(max_count, n)
        W = scatter.retta4_subspace(field, a, b, c, d)
        agree = agree and (n == field.q ** weight(U, W))
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
        "weight_cross_check": agree,
        "violations": violations,
    }
    return payload, not violations and agree


def cmd_verify_dual(cfg, field):
    payload = {}
    try:
        scene = dual_mod.build_scene(field)
        primal = dual_mod.primal_from_scene(scene)
        dual_sub = dual_mod.dual_from_scene(scene)
    except QscatError as exc:
        payload["error"] = str(exc)
        return payload, False
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
    return {"profile": profile.to_json()}, True


def cmd_saturating(cfg, field):
    U = scatter.build_Us(field, cfg["s"])
    S = saturate.linear_set_points(U, budget=cfg["budget"])
    inst = saturate.is_rho_saturating(
        S, cfg["rho"], workers=cfg["workers"], budget=cfg["budget"]
    )
    payload = {
        "linear_set_size": inst.size_s,
        "ambient_points": inst.ambient_points,
        "rho": inst.rho,
        "verdict": inst.verdict.to_json(),
    }
    return payload, inst.verdict.ok


def cmd_equivalence(cfg, field):
    U1 = scatter.build_Us(field, 1)
    U5p = scatter.build_U5prime(field)
    M = scatter.sec2_equivalence_matrix(field)
    image = apply_gl(M, U5p)
    sec2_ok = image == U1
    dual_verdict = dual_mod.verify_dual_equivalence(field)
    payload = {
        "sec2_matrix": rows_to_text(field, 4, scatter.SEC2_EQUIV_MATRIX),
        "sec2_maps_U5prime_to_U1": sec2_ok,
        "U5prime_differs_from_U1": U5p != U1,
        "dual_equivalence": dual_verdict.to_json(),
    }
    return payload, sec2_ok and dual_verdict.ok


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
        if cfg.get("out"):
            # before stdout, so an unwritable path prints no certificate
            write_certificate(cfg["out"], text)
    except (ConfigError, WorkLimitExceeded) as exc:
        print("qscat: error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        # a crash must never read as a refutation (exit 1)
        name = type(exc).__name__
        print("qscat: internal error: %s: %s" % (name, exc), file=sys.stderr)
        return 3
    print(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
