"""Command-line front end: knot -> family -> spectra -> distinguishing report.

Subcommands: knot (inspect a knot presentation), family (build a surgery
family and distinguish it), verify (cross-check the two surgery routes and
the knot group's peripheral tables),
export (write presentations as computational-algebra scripts).

Exit codes: 0 success / all pairs distinguished, 1 verification failure,
2 input error, 3 unresolved pairs remain, 4 resource cap exceeded.

Primary outputs are byte-deterministic for a fixed config; wall-clock
metadata goes to a run_meta.json sidecar.  Spectra are cached by content
hash of (package version, knot source, slope, suite) under
<out>/.cache.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor  # unused; bench/run.py's --trace 1 wraps it
from dataclasses import dataclass
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterator, Sequence

from . import __version__
from .alexander import fox_alexander
from .braids import parse_braid, wirtinger_from_braid
from .errors import ClosureCapExceededError, InvalidMonodromyError, KnotSurgeryError
from .fpgroup import (
    presentation_from_json,
    presentation_to_json,
    tietze_simplify,
    to_free_group_script,
    word_to_json,
)
from .homcount import HomSpectrum, distinguish_report, hom_spectrum, slope_count
from .knots import (
    KnotPresentation,
    builtin_knot,
    fibered_knot_from_json,
    mapping_torus_presentation,
    peripheral_tables,
    read_monodromy_file,
    validate_peripheral,
)
from .smith import abelianization
from .surgery import (
    MAX_ABS_P,
    MAX_Q,
    SurgerySlope,
    build_family,
    dehn_surgery_group,
    double_complement_group,
    family_manifest,
    half_complement_group,
)
from .targets import FiniteTarget, read_suite_bytes, resolve_suite, suite_names

SCHEMA_VERSION = 1
WORKERS_ENV = "KNOTSURGERY_WORKERS"  # no longer read; bench/workloads.py still sets it
MAX_P_VALUES = 1000


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs; built from parsed arguments."""

    source_kind: str  # "braid" | "builtin" | "monodromy"
    source: str
    q: int = 1
    p_values: tuple[int, ...] = ()
    targets: str = "standard"
    out_dir: Path | None = None
    cache: bool = True
    construction: str = "surgery"


def parse_p_spec(spec: str) -> tuple[int, ...]:
    """Comma list of integers and inclusive a..b ranges, e.g. "1..4,7,-2".

    At most MAX_P_VALUES values, each with |p| <= MAX_ABS_P; both limits are
    checked before a range is expanded.
    """
    values: list[int] = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ".." in chunk:
            lo_text, hi_text = chunk.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ValueError(f"empty range {chunk!r}")
        else:
            lo = hi = int(chunk)
        if max(-lo, hi) > MAX_ABS_P:
            raise KnotSurgeryError(f"p values must have |p| <= {MAX_ABS_P}, got {chunk!r}")
        if len(values) + hi - lo + 1 > MAX_P_VALUES:
            raise KnotSurgeryError(f"more than {MAX_P_VALUES} p values in {spec!r}")
        values.extend(range(lo, hi + 1))
    if not values:
        raise ValueError(f"no p values in {spec!r}")
    return tuple(values)


def _knot_source(args: argparse.Namespace) -> tuple[str, str]:
    picked = [
        ("braid", args.braid),
        ("builtin", args.builtin),
        ("monodromy", args.monodromy),
    ]
    chosen = [(kind, value) for kind, value in picked if value]
    if len(chosen) != 1:
        raise ValueError("exactly one of --braid, --builtin, --monodromy is required")
    return chosen[0]


def load_knot(config: RunConfig) -> tuple[KnotPresentation, str]:
    """The knot and the fingerprint of its source for the cache key.

    A monodromy file is read once: the knot is parsed from the same bytes
    whose sha256 is the fingerprint.
    """
    if config.source_kind == "braid":
        kp = wirtinger_from_braid(parse_braid(config.source))
    elif config.source_kind == "builtin":
        try:
            kp = builtin_knot(config.source)
        except KeyError as exc:
            raise KnotSurgeryError(str(exc)) from None
    elif config.source_kind == "monodromy":
        content = read_monodromy_file(config.source)
        try:
            payload = json.loads(content.decode("utf-8"))
        except RecursionError:
            raise InvalidMonodromyError("monodromy file is nested too deeply") from None
        data = fibered_knot_from_json(payload)
        return mapping_torus_presentation(data), f"monodromy:{hashlib.sha256(content).hexdigest()}"
    else:
        raise ValueError(f"unknown source kind {config.source_kind!r}")
    return kp, f"{config.source_kind}:{config.source}"


def _suite_fingerprint(spec: str) -> str:
    if spec in ("standard", "extended"):
        return spec
    return f"file:{hashlib.sha256(read_suite_bytes(spec)).hexdigest()}"


def _cache_keys(config: RunConfig, source: str, p_values: Sequence[int]) -> list[str]:
    """The cache entry name of each slope's spectrum, in the order of p_values."""
    fields = {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "source": source,
        "q": config.q,
        "suite": _suite_fingerprint(config.targets),
        # both fixed, so existing cache entries keep their names; the Tietze
        # step limit this field once named never bound (see tietze_simplify_tracked)
        "budget": 10_000,
        "construction": "double",
    }
    return [
        hashlib.sha256(json.dumps(dict(fields, p=p), sort_keys=True).encode()).hexdigest()
        for p in p_values
    ]


def _read_cache_entry(path: Path, names: tuple[str, ...]) -> HomSpectrum | None:
    """The cached spectrum, or None (a miss) if the entry is absent, unreadable or stale."""
    try:
        data = json.loads(path.read_text())
        if data["schema_version"] != SCHEMA_VERSION:
            return None
        spectrum = HomSpectrum(tuple((str(name), int(count)) for name, count in data["counts"]))
    except (OSError, ValueError, KeyError, TypeError, RecursionError):
        return None
    return spectrum if spectrum.target_names == names else None


def _write_atomic(path: Path, text: str) -> None:
    """Write through a temporary file so a reader never sees a partial entry."""
    temporary = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    temporary.write_text(text)
    os.replace(temporary, path)


# Never called; bench/run.py's --trace 1 wraps it.
def _spectrum_task(payload: tuple[dict, str]) -> HomSpectrum:
    presentation_json, suite_spec = payload
    simplified = tietze_simplify(presentation_from_json(presentation_json))
    return hom_spectrum(simplified, resolve_suite(suite_spec))


def _filtered_spectrum(
    suite: Sequence[FiniteTarget], tables: Sequence[dict], slope: SurgerySlope
) -> HomSpectrum:
    """The slope's spectrum read off the knot group's peripheral tables into the suite."""
    return HomSpectrum(tuple(
        (target.name, slope_count(table, target, slope.q, slope.p))
        for target, table in zip(suite, tables)
    ))


def compute_spectra(
    slopes: Sequence[SurgerySlope],
    config: RunConfig,
    keys: list[str],
    kp: KnotPresentation,
) -> tuple[list[HomSpectrum], int]:
    """Spectra of kp's surgeries in slope order, through the file cache under
    out_dir when enabled.

    keys[i] names the cache entry of slopes[i].  An entry that is
    unreadable, or whose schema or target names do not match, counts as a
    miss.  All misses are filled from the knot group's peripheral tables:
    one search per target of the suite, however many slopes miss.  Returns
    (spectra, number of cache hits).
    """
    spectra: list[HomSpectrum | None] = [None] * len(slopes)
    if config.cache:
        cache_dir = config.out_dir / ".cache"
        cache_dir.mkdir(parents=True, exist_ok=True)
        names = suite_names(config.targets)
        paths = [cache_dir / f"{key}.json" for key in keys]
        spectra = [_read_cache_entry(path, names) for path in paths]
    pending = [i for i, spectrum in enumerate(spectra) if spectrum is None]
    if pending:
        suite = resolve_suite(config.targets)
        tables = list(peripheral_tables(kp, suite))
        for i in pending:
            spectra[i] = _filtered_spectrum(suite, tables, slopes[i])
            if config.cache:
                payload = {"schema_version": SCHEMA_VERSION, "counts": list(spectra[i].entries)}
                _write_atomic(paths[i], _dumps(payload) + "\n")
    return spectra, len(slopes) - len(pending)


# How _dumps writes each scalar type; keyed by exact type, so a bool is
# never written as an int and an int subclass is refused.
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _dumps(value, indent: str = "") -> str:
    """The text of json.dumps(value, indent=2), for the types the CLI writes.

    Those are dicts with str keys, lists, tuples, str, int, bool and None;
    anything else raises TypeError.  json.dumps with an indent runs the
    stdlib's pure-Python encoder; this writer formats the scalar items of a
    list in place instead of through a recursive call.
    """
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = indent + "  "
    if type(value) is dict:
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(f"{encode_basestring_ascii(key)}: {_dumps(item, inner)}")
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if type(value) is list or type(value) is tuple:
        if not value:
            return "[]"
        items = []
        for item in value:
            scalar = _SCALARS.get(type(item))
            items.append(scalar(item) if scalar is not None else _dumps(item, inner))
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    raise TypeError(f"cannot write {type(value).__name__} as JSON")


def _write_json(path: Path, payload) -> None:
    path.write_text(_dumps(payload) + "\n", encoding="utf-8")


def _slopes(config: RunConfig) -> Iterator[SurgerySlope]:
    """The config's slopes in order; prints a skip line for each p not coprime to q.

    Raises ValueError once the p values are exhausted if every one was skipped.
    """
    kept = 0
    for p in config.p_values:
        try:
            slope = SurgerySlope(p, config.q)
        except KnotSurgeryError:
            print(f"skip p={p}: gcd(p, {config.q}) != 1")
            continue
        kept += 1
        yield slope
    if not kept:
        raise ValueError("no slope left after gcd filter")


def cmd_knot(config: RunConfig) -> int:
    kp, _ = load_knot(config)
    suite = resolve_suite(config.targets)
    print(f"knot: {config.source_kind} {config.source}")
    print(f"group: {kp.group}")
    print(f"meridian: {kp.group.word_str(kp.meridian)}")
    print(f"longitude: {kp.group.word_str(kp.longitude)}")
    if kp.genus_hint is not None:
        print(f"genus hint: {kp.genus_hint}")
    invariants = abelianization(kp.group)
    print(f"abelianization: {invariants}")
    report = validate_peripheral(kp, suite)
    print("peripheral checks:")
    for line in report.format().splitlines():
        print(f"  {line}")
    if not report.ok:
        # the Alexander polynomial below is defined only for a knot group
        return 1
    alexander = fox_alexander(kp)
    print(f"alexander: {alexander}")
    if config.out_dir is not None:
        config.out_dir.mkdir(parents=True, exist_ok=True)
        names = kp.group.generators
        _write_json(
            config.out_dir / "knot.json",
            {
                "schema_version": SCHEMA_VERSION,
                "source": {"kind": config.source_kind, "value": config.source},
                "presentation": presentation_to_json(kp.group),
                "meridian": word_to_json(kp.meridian, names),
                "longitude": word_to_json(kp.longitude, names),
                "genus_hint": kp.genus_hint,
                "abelianization": str(invariants),
                "alexander": str(alexander),
                "peripheral_ok": report.ok,
            },
        )
    return 0


def cmd_family(config: RunConfig) -> int:
    started = time.perf_counter()
    if config.out_dir is None:
        raise ValueError("family requires --out")
    kp, source = load_knot(config)
    family = build_family(kp, config.q, config.p_values)
    for p in family.skipped:
        print(f"skip p={p}: gcd(p, {config.q}) != 1")
    if not family.members:
        raise ValueError("empty family after gcd filter")
    config.out_dir.mkdir(parents=True, exist_ok=True)

    labels = [f"p={m.slope.p}" for m in family.members]
    slopes = [m.slope for m in family.members]
    keys = _cache_keys(config, source, [slope.p for slope in slopes])
    spectra, hits = compute_spectra(slopes, config, keys, kp)

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "source": {"kind": config.source_kind, "value": config.source},
        "q": config.q,
        "skipped_p": list(family.skipped),
        "members": family_manifest(family),
    }
    _write_json(config.out_dir / "family_manifest.json", manifest)

    csv_lines = ["label," + ",".join(spectra[0].target_names)]
    for label, spectrum in zip(labels, spectra):
        csv_lines.append(label + "," + ",".join(str(c) for c in spectrum.counts))
    (config.out_dir / "spectra.csv").write_text("\n".join(csv_lines) + "\n", encoding="utf-8")

    report = distinguish_report(list(zip(labels, spectra)))
    (config.out_dir / "distinguish_report.txt").write_text(report.format() + "\n", encoding="utf-8")
    print(report.format())
    meta = {
        "schema_version": SCHEMA_VERSION,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "elapsed_ms": int((time.perf_counter() - started) * 1000),
        "cache_hits": hits,
    }
    _write_json(config.out_dir / "run_meta.json", meta)
    return 0 if report.all_distinguished else 3


def cmd_verify(config: RunConfig) -> int:
    kp, _ = load_knot(config)
    suite = resolve_suite(config.targets)
    peripheral = validate_peripheral(kp, suite)
    if not peripheral.ok:
        print("peripheral validation FAILED:")
        for line in peripheral.format().splitlines():
            print(f"  {line}")
        return 1
    # the third side: each slope's spectrum read off the knot group's tables
    tables = list(peripheral_tables(kp, suite))
    lines = []
    all_ok = True
    for slope in _slopes(config):
        surgery = tietze_simplify(dehn_surgery_group(kp, slope))
        half = tietze_simplify(half_complement_group(kp, slope))
        ab_surgery = abelianization(surgery)
        ab_half = abelianization(half)
        ok = ab_surgery == ab_half and (
            hom_spectrum(surgery, suite)
            == hom_spectrum(half, suite)
            == _filtered_spectrum(suite, tables, slope)
        )
        all_ok = all_ok and ok
        status = "PASS" if ok else "FAIL"
        detail = f"H1 {ab_surgery} vs {ab_half}, spectra over {len(suite)} targets"
        line = f"p={slope.p} q={config.q}: {detail}: {status}"
        lines.append(line)
        print(line)
    if config.out_dir is not None:
        config.out_dir.mkdir(parents=True, exist_ok=True)
        (config.out_dir / "verify_report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0 if all_ok else 1


def cmd_export(config: RunConfig) -> int:
    if config.out_dir is None:
        raise ValueError("export requires --out")
    kp, _ = load_knot(config)
    config.out_dir.mkdir(parents=True, exist_ok=True)
    if config.construction == "knot":
        path = config.out_dir / "knot_group.g"
        path.write_text(to_free_group_script(kp.group), encoding="utf-8")
        print(f"wrote {path}")
        return 0
    builder = {
        "surgery": dehn_surgery_group,
        "half": half_complement_group,
        "double": double_complement_group,
    }[config.construction]
    for slope in _slopes(config):
        presentation = builder(kp, slope)
        path = config.out_dir / f"{config.construction}_q{config.q}_p{slope.p}.g"
        path.write_text(to_free_group_script(presentation), encoding="utf-8")
        print(f"wrote {path}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of main; built on the first call, not at import."""
    return build_parser()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knotsurgery",
        description="Knot groups, surgery quotients, and finite-quotient invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_slopes: bool) -> None:
        p.add_argument("--braid", help="braid word, e.g. '1 1 1' or 'n=2; s1 s1 s1'")
        p.add_argument("--builtin", help="builtin knot name: unknot, trefoil, fig8")
        p.add_argument("--monodromy", help="path to a fibered-knot JSON file")
        p.add_argument("--targets", default="standard",
                       help="'standard', 'extended', or a target-suite JSON path")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument("--no-cache", action="store_true", help="disable the spectra cache")
        if with_slopes:
            p.add_argument("--q", type=int, default=1, help="slope numerator q >= 1")
            p.add_argument("--p", dest="p_spec", default="1",
                           help="p values: comma list and a..b ranges, e.g. '1..6'")

    add_common(sub.add_parser("knot", help="inspect a knot presentation"), with_slopes=False)
    add_common(sub.add_parser("family", help="build and distinguish a surgery family"), with_slopes=True)
    add_common(sub.add_parser("verify", help="cross-check surgery against the doubled route"), with_slopes=True)
    export = sub.add_parser("export", help="write presentations as algebra-system scripts")
    add_common(export, with_slopes=True)
    export.add_argument(
        "--construction",
        choices=("surgery", "half", "double", "knot"),
        default="surgery",
        help="which group to export per slope; 'double' writes the same"
        " presentation as 'half'",
    )
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    kind, source = _knot_source(args)
    p_values: tuple[int, ...] = ()
    q = getattr(args, "q", 1)
    if hasattr(args, "p_spec"):
        p_values = parse_p_spec(args.p_spec)
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if q > MAX_Q:
        raise KnotSurgeryError(f"q must be <= {MAX_Q}, got {q}")
    return RunConfig(
        source_kind=kind,
        source=source,
        q=q,
        p_values=p_values,
        targets=args.targets,
        out_dir=args.out,
        cache=not args.no_cache,
        construction=getattr(args, "construction", "surgery"),
    )


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    commands = {
        "knot": cmd_knot,
        "family": cmd_family,
        "verify": cmd_verify,
        "export": cmd_export,
    }
    try:
        config = config_from_args(args)
        return commands[args.command](config)
    except ClosureCapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (KnotSurgeryError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
