"""Command-line front end: knot -> family -> spectra -> distinguishing report.

Subcommands: knot (inspect a knot presentation), family (build a surgery
family and distinguish it), verify (cross-check the two surgery routes and
the knot group's peripheral tables),
export (write presentations as computational-algebra scripts).

Exit codes: 0 success / all pairs distinguished, 1 verification failure,
2 input error, 3 unresolved pairs remain, 4 resource cap exceeded.

Slopes: family, verify and export keep the slope q/p of each p coprime to
q, in input order (RunConfig.kept_p), and print a skip line for every other
p.  Once its arguments parse, a command refuses, with exit 2, in this
order: a missing --out (family and export); a p set with none kept, after
a skip line for each p, before the knot loads; then, once it has loaded,
the first kept p whose longitude power word_power would refuse (all but
export --construction knot); then kept p whose longitude powers would total
more than MAX_EXPORT_LETTERS letters (family, and export with a slope
construction).  Nothing is built, searched or written before these pass.

Primary outputs are byte-deterministic for a fixed config; wall-clock
metadata goes to a run_meta.json sidecar.  family caches one entry per
(package version, knot source, suite) under <out>/.cache: each target's
slope lattices of the knot group, off which every slope's spectrum is read,
and a record of the manifest family last wrote next to it.  A warm family
call whose manifest still has the recorded size and CRC-32 builds no member.
Otherwise family, verify and export draw the halves of the double one at a
time from surgery.family_members, so each holds one member's words at a
time; no command builds a whole family.

This is the only module that touches files: every input file is read by
``_read_json``, at its size and to a fixed nesting depth, and every output
is written by ``_write``,
which first checks the old output against a record, or reads it back (up
to the new text's length + 1 bytes), leaves an unchanged one alone and
rewrites a changed one in place, cut to its new length.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import re
import stat
import sys
import textwrap
import time
import zlib
from datetime import datetime, timezone
from itertools import accumulate
from json.encoder import encode_basestring_ascii
from math import gcd
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import __version__
from .alexander import fox_alexander
from .braids import parse_braid, wirtinger_from_braid
from .errors import (
    ClosureCapExceededError,
    InvalidMonodromyError,
    KnotSurgeryError,
    PeripheralValidationError,
)
from .fpgroup import (
    MAX_WORD_LENGTH,
    Letter,
    Word,
    presentation_from_json,
    presentation_to_json,
    refuse_long_power,
    tietze_simplify,
    to_free_group_script,
    word_to_json,
)
from .homcount import (
    HomSpectrum,
    distinguish_report,
    hom_spectrum,
    slope_counts,
    slope_lattices,
)
from .knots import (
    KnotPresentation,
    builtin_knot,
    fibered_knot_from_json,
    fibered_knot_to_json,
    mapping_torus_presentation,
    validate_peripheral,
)
from .smith import abelianization
from .surgery import (
    MAX_ABS_P,
    MAX_Q,
    SurgerySlope,
    dehn_surgery_group,
    family_members,
)
from .targets import (
    ESCALATION,
    STANDARD,
    FiniteTarget,
    checked_entries,
    escalation_suite,
    standard_suite,
    suite_from_json,
)

# Cache entries are named by this and the package version, so a change to the
# manifest's bytes must bump one of them, or an old record would pass the old
# text; tests/test_cli.py pins one manifest's sha256 to each SCHEMA_VERSION.
SCHEMA_VERSION = 1
WORKERS_ENV = "KNOTSURGERY_WORKERS"  # no longer read; bench/workloads.py still sets it
# A placeholder that bench/run.py --trace 1 replaces with a timed pool class;
# nothing here starts a pool, so importing this module loads no process pool.
ProcessPoolExecutor = None
MAX_P_VALUES = 1000
# Monodromy files are refused past this size before they are parsed.  The limit
# also bounds the certificate's compositions, whose length is at most the
# product of two image lengths.
MAX_MONODROMY_BYTES = 16_384
# Suite files are refused past this size before they are parsed.
MAX_SUITE_BYTES = 65_536
# Cache entries past this size are a miss, and their knot is searched again.
# An entry holds each target's name and slope lattices; their number is not
# bounded by the suite file's size, but the largest bundled case measured,
# "1 -2 1 -2 1 -2 1 -2 1 -2" over extended (126 lattices), takes 1804 bytes.
MAX_CACHE_ENTRY_BYTES = 4 * MAX_SUITE_BYTES
# family and export refuse a slope set whose filling relators' longitude
# powers would total more letters: sum over the kept p of |p| * |longitude|.
# Ten times the one-word limit still lets the largest single slope through.
MAX_EXPORT_LETTERS = 10 * MAX_WORD_LENGTH
# Input files nested deeper than this are refused before they are decoded.  A
# valid suite nests 3 deep, a monodromy file 4 and a cache entry 5; the bound
# leaves room for fields that the readers ignore, and keeps the decoder's
# recursion far from any interpreter's limit.
MAX_JSON_DEPTH = 16
# _json_depth cuts each escape, then every byte but brackets and double quotes.
_ESCAPE = re.compile(rb"\\.", re.DOTALL)
_NOT_BRACKET_OR_QUOTE = bytes(c for c in range(256) if c not in b'[]{}"')
_DEPTH_STEPS = {ord("["): 1, ord("{"): 1, ord("]"): -1, ord("}"): -1}
_SLICE = 1 << 20  # the characters of a chunk that _write compares or writes at a time
_BLOCK = 1 << 16  # the bytes of an output that _write reads at a time to check its record


def _json_depth(content: bytes) -> int:
    """The deepest bracket nesting of a JSON document outside its strings.

    Its escapes are cut, then every byte but brackets and double quotes, then
    each run between two quotes (a string, to the end of the document if it
    is not closed); no Python code runs per byte.  UTF-8 puts no ASCII byte
    inside a character, so the bytes need not be decoded first.
    """
    kept = _ESCAPE.sub(b"", content).translate(None, _NOT_BRACKET_OR_QUOTE)
    brackets = b"".join(kept.split(b'"')[::2])
    return max(accumulate(map(_DEPTH_STEPS.__getitem__, brackets)), default=0)


def _read_json(path: str | Path, limit: int, what: str, error: type) -> tuple[object, bytes]:
    """The JSON document in the file and the bytes it was parsed from, read once.

    A regular file is read in one read of its size + 1 bytes.  A file that
    yields more than its size (a device, or one growing while it is read) is
    read on, to at most limit + 1 bytes in all.  A file past limit bytes, or
    nested past MAX_JSON_DEPTH, raises error before it is decoded, on every
    interpreter alike; one that is not UTF-8 JSON raises ValueError.
    """
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        content = handle.read(min(size, limit) + 1)
        if len(content) > size:
            content += handle.read(limit + 1 - len(content))
    if len(content) > limit:
        raise error(f"{what} file {path!r} is past the limit {limit} bytes")
    if _json_depth(content) > MAX_JSON_DEPTH:
        raise error(f"{what} file {path!r} is nested too deeply")
    return json.loads(content.decode("utf-8")), content


def _write(
    path: Path,
    text: str | Callable[[], Iterable[str]],
    atomic: bool = False,
    recorded: tuple[int, int] | None = None,
) -> tuple[int, int]:
    """Write text, or the chunks that a call of text returns, to path as
    UTF-8, making path's directory if it is missing; return the size and
    CRC-32 of the bytes that path then holds.

    Chunks are encoded and go to the file one at a time, a long one _SLICE
    characters at a time, so no document is held whole and no long chunk
    held again encoded or read back; the size and CRC-32 are taken from
    those bytes as they are compared or written.  Cache entries alone are
    atomic (a temporary file, then a rename, removed if the write fails), so
    a reader never sees a partial one.

    Given recorded, the size and CRC-32 that an earlier write of the same
    text returned, a regular file at path that still has that size (from
    fstat) and CRC-32 (read _BLOCK bytes at a time) is left alone (mtime
    kept) and text is not called; one that has not is known to differ, and
    is rewritten without being compared.  Any other write first reads back
    the regular file at path, at most the new text's length + 1 bytes, and
    leaves it alone if it already holds the text.  A changed or missing
    output is rewritten in place (from a second call of text if it was
    compared), then cut to the written length if it is a regular file: on
    ext4, truncating to zero and writing again costs several times the
    write.  A rewrite cut short leaves the new text over the old text's
    tail; no output is read as input, only compared or checked, and cache
    entries stay atomic.  A path that is not a regular file is written
    without being read.
    """
    size = crc = 0

    def encoded() -> Iterator[bytes]:
        nonlocal size, crc
        size = crc = 0
        for part in (text,) if isinstance(text, str) else text():
            if len(part) > _SLICE:
                pieces = (part[i : i + _SLICE] for i in range(0, len(part), _SLICE))
            else:
                pieces = (part,)
            for piece in pieces:
                data = piece.encode()  # UTF-8
                size += len(data)
                crc = zlib.crc32(data, crc)
                yield data

    if not atomic:
        with contextlib.suppress(OSError):
            if stat.S_ISREG(os.stat(path).st_mode):
                with open(path, "rb") as old:
                    if recorded is None:
                        if all(old.read(len(data)) == data for data in encoded()) and not old.read(1):
                            return size, crc
                    elif os.fstat(old.fileno()).st_size == recorded[0]:
                        check = 0
                        for block in iter(functools.partial(old.read, _BLOCK), b""):
                            check = zlib.crc32(block, check)
                        if check == recorded[1]:
                            return recorded
    target = path.with_name(f"{path.name}.{os.getpid()}.tmp") if atomic else path

    def put() -> None:
        fd = os.open(target, os.O_WRONLY | os.O_CREAT, 0o666)
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(encoded())
            if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
                handle.truncate()

    try:
        try:
            put()
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            put()
        if atomic:
            os.replace(target, path)
    except OSError:
        if atomic:
            with contextlib.suppress(OSError):
                target.unlink()
        raise
    return size, crc


class SuiteSpec(NamedTuple):
    """A CLI suite spec, read once.

    ``fingerprint`` names the suite in cache keys, ``names`` lists its targets
    without closing them, and ``close()`` closes them.
    """

    fingerprint: str
    names: tuple[str, ...]
    close: Callable[[], tuple[FiniteTarget, ...]]


def read_suite(spec: str) -> SuiteSpec:
    """The suite of a CLI spec: "standard", "extended", or a file path.

    A bundled suite's names are the keys of its tables in targets.  A file is
    read once: its fingerprint, names and targets all come from the same bytes.
    """
    if spec == "standard":
        return SuiteSpec(spec, tuple(STANDARD), standard_suite)
    if spec == "extended":
        names = tuple(STANDARD) + tuple(ESCALATION)
        return SuiteSpec(spec, names, lambda: standard_suite() + escalation_suite())
    document, content = _read_json(spec, MAX_SUITE_BYTES, "target-suite", KnotSurgeryError)
    entries = checked_entries(document)
    return SuiteSpec(
        f"file:{hashlib.sha256(content).hexdigest()}",
        tuple(e["name"] for e in entries),
        functools.partial(suite_from_json, entries),
    )


class RunConfig:
    """Everything a command needs; built from parsed arguments.  A braid
    source is kept as outputs and cache keys spell it: its parsed letters
    joined by single spaces."""

    def __init__(
        self,
        source_kind: str,  # "braid" | "builtin" | "monodromy"
        source: str,
        q: int = 1,
        p_values: tuple[int, ...] = (),
        targets: str = "standard",
        out_dir: Path | None = None,
        cache: bool = True,
        construction: str = "surgery",
    ) -> None:
        if source_kind == "braid":
            source = " ".join(map(str, parse_braid(source).letters))
        self.source_kind = source_kind
        self.source = source
        self.q = q
        self.p_values = p_values
        self.targets = targets
        self.out_dir = out_dir
        self.cache = cache
        self.construction = construction

    @functools.cached_property
    def suite(self) -> SuiteSpec:
        """The suite that targets names, read on first use and then kept."""
        return read_suite(self.targets)

    @functools.cached_property
    def kept_p(self) -> dict[int, None]:
        """The p coprime to q, in input order, worked out on first use and then
        kept: the one place the slope rule is decided.  A dict, so that each
        of up to MAX_P_VALUES p is looked up in O(1)."""
        return dict.fromkeys(p for p in self.p_values if gcd(p, self.q) == 1)


def parse_p_spec(spec: str) -> tuple[int, ...]:
    """Comma list of integers and inclusive a..b ranges, e.g. "1..4,7,-2".

    At most MAX_P_VALUES values, each with |p| <= MAX_ABS_P; both limits are
    checked before a range is expanded.  A value given twice is refused.
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
    seen: set[int] = set()
    for p in values:
        if p in seen:
            raise ValueError(f"p={p} is given more than once in {spec!r}")
        seen.add(p)
    return tuple(values)


def _knot_source(args: argparse.Namespace) -> tuple[str, str]:
    picked = [
        ("braid", args.braid),
        ("builtin", args.builtin),
        ("monodromy", args.monodromy),
    ]
    chosen = [(kind, value) for kind, value in picked if value is not None]
    if len(chosen) != 1:
        raise ValueError("exactly one of --braid, --builtin, --monodromy is required")
    return chosen[0]


def load_knot(config: RunConfig) -> tuple[KnotPresentation, str]:
    """The knot and the fingerprint of its source for the cache key.

    The fingerprint names the parsed knot, not the text it was typed as, so
    one braid or monodromy is one key however it is spaced or indented.  A
    monodromy file is read once.
    """
    if config.source_kind == "braid":
        return wirtinger_from_braid(parse_braid(config.source)), f"braid:{config.source}"
    if config.source_kind == "builtin":
        try:
            return builtin_knot(config.source), f"builtin:{config.source}"
        except KeyError as exc:
            raise KnotSurgeryError(exc.args[0]) from None
    if config.source_kind == "monodromy":
        payload, _ = _read_json(
            config.source, MAX_MONODROMY_BYTES, "monodromy", InvalidMonodromyError
        )
        data = fibered_knot_from_json(payload)
        canonical = json.dumps(fibered_knot_to_json(data)).encode()
        return mapping_torus_presentation(data), f"monodromy:{hashlib.sha256(canonical).hexdigest()}"
    raise ValueError(f"unknown source kind {config.source_kind!r}")


def _read_cache_entry(
    path: Path, names: tuple[str, ...]
) -> tuple[tuple[dict, ...], list | None] | None:
    """Each named target's slope lattices in the cached entry and the
    entry's manifest record (None if it has none), or None (a miss) if the
    entry is absent, unreadable, past MAX_CACHE_ENTRY_BYTES, stale or of the
    wrong shape.

    Nothing is coerced: a schema version, lattice or record field of another
    type (true, 1.0, "1") is a miss, as is a lattice (m, c, n) of weight w
    that ``slope_lattices`` does not make: m < 1, n < 1, c outside 0..m-1,
    w < 1, or one given twice, and a record that is not [key, size, crc32]
    with key a string, size >= 0 and 0 <= crc32 < 2**32.  A decoded name
    equal to a str is one.
    """
    try:
        data, _ = _read_json(path, MAX_CACHE_ENTRY_BYTES, "cache entry", KnotSurgeryError)
        version, targets = data["schema_version"], data["lattices"]
        if type(version) is not int or version != SCHEMA_VERSION or len(targets) != len(names):
            return None
        record = data.get("manifest")
        if "manifest" in data:  # a record of null is a miss too
            key, size, crc = record
            if not (type(key) is str and type(size) is type(crc) is int
                    and size >= 0 and 0 <= crc < 1 << 32):
                return None
        lattices = []
        for (name, rows), expected in zip(targets, names):
            if name != expected:
                return None
            lattice = {}
            for m, c, n, w in rows:
                if not (type(m) is type(c) is type(n) is type(w) is int
                        and 0 <= c < m and n >= 1 and w >= 1) or (m, c, n) in lattice:
                    return None
                lattice[m, c, n] = w
            lattices.append(lattice)
    except (KnotSurgeryError, OSError, ValueError, KeyError, TypeError):
        return None
    return tuple(lattices), record


# Never called; bench/run.py's --trace 1 wraps it.
def _spectrum_task(payload: tuple[dict, str]) -> HomSpectrum:
    presentation_json, suite_spec = payload
    simplified = tietze_simplify(presentation_from_json(presentation_json))
    return hom_spectrum(simplified, read_suite(suite_spec).close())


def _slope_lattices(kp: KnotPresentation, suite: Sequence[FiniteTarget]) -> tuple[dict, ...]:
    """Each target's slope lattices of kp's peripheral tables; a failed
    peripheral report stops the command with exit 1."""
    report = validate_peripheral(kp, suite)
    if not report.ok:
        failed = textwrap.indent(report.format(), "  ")
        raise PeripheralValidationError(f"peripheral validation FAILED:\n{failed}")
    return tuple(map(slope_lattices, report.tables, suite))


def _spectra(
    names: Sequence[str], lattices: Sequence[dict], slopes: Sequence[SurgerySlope]
) -> list[HomSpectrum]:
    """Each slope's spectrum read off the knot group's slope lattices into the
    named targets, in one pass over each target's lattices."""
    pairs = [(slope.q, slope.p) for slope in slopes]
    columns = [slope_counts(lattice, pairs) for lattice in lattices]
    by_slope = zip(*columns) if columns else [()] * len(slopes)
    return [HomSpectrum(tuple(zip(names, counts))) for counts in by_slope]


def compute_spectra(
    slopes: Sequence[SurgerySlope],
    config: RunConfig,
    source: str,
    kp: KnotPresentation,
) -> tuple[list[HomSpectrum], int]:
    """Spectra of kp's surgeries in slope order, and how many of them were
    read off the file cache under out_dir (all or none); writes the family
    manifest under out_dir.

    The cache keeps one entry per (package version, knot source, suite): each
    target's slope lattices of the knot group and the record of the manifest
    last written next to it.  A miss (see _read_cache_entry) is filled from
    the tables of kp's peripheral report, one search per target, which raises
    before anything is written if it fails.  Hit or miss, every slope is
    counted off the lattices, and then the manifest is written, or checked
    against the entry's record (see _write_manifest).  The entry is written
    once, after the manifest, if it missed or its record changed; an entry
    that cannot be written stays a miss, and a failed manifest write leaves
    the entry as it was.
    """
    names = config.suite.names
    found = None
    if config.cache:
        fields = [SCHEMA_VERSION, __version__, source, config.suite.fingerprint]
        digest = hashlib.sha256(json.dumps(fields).encode()).hexdigest()
        # a missing directory reads as a miss; _write makes it
        path = config.out_dir / ".cache" / f"{digest}.json"
        found = _read_cache_entry(path, names)
    lattices, record = found or (None, None)
    hits = 0 if found is None else len(slopes)
    if found is None:
        lattices = _slope_lattices(kp, config.suite.close())
    spectra = _spectra(names, lattices, slopes)
    written = _write_manifest(config, kp, record)
    if config.cache and (found is None or written != record):
        rows = [[name, [[m, c, n, w] for (m, c, n), w in lattice.items()]]
                for name, lattice in zip(names, lattices)]
        payload = {"schema_version": SCHEMA_VERSION, "lattices": rows, "manifest": written}
        with contextlib.suppress(OSError):
            _write(path, json.dumps(payload, separators=(",", ":")) + "\n", atomic=True)
    return spectra, hits


def _enclosed(opening: str, items: list[str], closing: str, indent: str) -> str:
    """The items' texts between brackets, one item a line, as
    json.dumps(indent=2) lays out a container placed at indent.

    The brackets go into the first and the last item, which items keeps, so
    that the text is made by one join: a long word's text is allocated once.
    """
    if not items:
        return opening + closing
    inner = indent + "  "
    items[0] = opening + "\n" + inner + items[0]
    items[-1] += "\n" + indent + closing
    return (",\n" + inner).join(items)


# In family_manifest.json a member record is placed at indent 4, its fields at
# 6, the fields of its presentation and labels at 8 (where a label word is
# placed) and each relator at 10; a word's letters sit two spaces deeper.
_MEMBER_INDENT, _FIELD_INDENT, _LABEL_INDENT, _RELATOR_INDENT = (" " * n for n in (4, 6, 8, 10))


def _letter_texts(names: tuple[str, ...], indent: str) -> dict[Letter, str]:
    """The text of each letter [name, exponent] over names, placed at indent."""
    return {
        (g, e): _enclosed("[", [encode_basestring_ascii(name), str(e)], "]", indent)
        for g, name in enumerate(names)
        for e in (1, -1)
    }


def _word_text(word: Word, letters: dict[Letter, str], indent: str, lead: str = "") -> str:
    """The text of word_to_json(word, names) placed at indent, after lead,
    from the texts of its letters at two spaces deeper; no Python code runs
    per letter."""
    return _enclosed(lead + "[", list(map(letters.__getitem__, word.letters)), "]", indent)


def _manifest_chunks(config: RunConfig, kp: KnotPresentation) -> Iterator[str]:
    """The text of family_manifest.json, drawing the members of
    family_members(kp, config.q, config.p_values) one at a time.

    The text is json.dumps(indent=2) of {schema_version, source, q, skipped_p,
    members} and a newline: skipped_p the p not coprime to q, and members the
    {p, q, presentation, labels} record of each member, of which there is at
    least one.  Each word's text joins the texts of its letters.  Members share
    their generators, their labels and their first len(kp.group.relators) + 1
    relators (the knot group's and [mu, lam]): the text of these is made once
    per family and yielded as chunks of their own.  A member's other relators
    (its filling relator, mu and lam) are made as they are written and then
    dropped, so one member's text is held at a time.  A member that does not
    share these with the one before has their text made again, so any
    members are written right.
    """
    header = {
        "schema_version": SCHEMA_VERSION,
        "source": {"kind": config.source_kind, "value": config.source},
        "q": config.q,
        "skipped_p": [p for p in config.p_values if p not in config.kept_p],
    }
    # the header's text ends with "\n}"; members is its last key
    yield json.dumps(header, indent=2)[:-2] + ',\n  "members": ['
    inner = ",\n" + _RELATOR_INDENT
    shared_count = len(kp.group.relators) + 1
    shared = None
    separator = "\n" + _MEMBER_INDENT
    for member in family_members(kp, config.q, config.p_values):
        names, relators = member.presentation.generators, member.presentation.relators
        common_words, label_items = relators[:shared_count], tuple(member.labels.items())
        if (names, common_words, label_items) != shared:
            shared = names, common_words, label_items
            letters = _letter_texts(names, _RELATOR_INDENT + "  ")
            label_letters = _letter_texts(names, _LABEL_INDENT + "  ")
            common = [_word_text(w, letters, _RELATOR_INDENT) for w in common_words]
            # the presentation's fields up to the end of its shared relators
            opening = (
                f',\n{_FIELD_INDENT}"presentation": {{\n{_LABEL_INDENT}"generators": '
                + _enclosed("[", list(map(encode_basestring_ascii, names)), "]", _LABEL_INDENT)
                + f',\n{_LABEL_INDENT}"relators": ['
                + (f"\n{_RELATOR_INDENT}" + inner.join(common) if common else "")
            )
            labels = [
                f"{encode_basestring_ascii(role)}: {_word_text(w, label_letters, _LABEL_INDENT)}"
                for role, w in label_items
            ]
            # the end of the relators (a member has its own relators only
            # past shared ones), of the presentation, the labels and the record
            closing = (
                (f"\n{_LABEL_INDENT}]" if common else "]") + f"\n{_FIELD_INDENT}}},\n"
                + f'{_FIELD_INDENT}"labels": ' + _enclosed("{", labels, "}", _FIELD_INDENT)
                + f"\n{_MEMBER_INDENT}}}"
            )
        yield (
            f'{separator}{{\n{_FIELD_INDENT}"p": {member.slope.p},'
            f'\n{_FIELD_INDENT}"q": {member.slope.q}'
        )
        yield opening
        # each of the member's own relators is a chunk of its own, led by its
        # separator, so a long filling relator's text is made in one join
        for word in relators[shared_count:]:
            yield _word_text(word, letters, _RELATOR_INDENT, inner)
        yield closing
        separator = ",\n" + _MEMBER_INDENT
    yield "\n  ]\n}\n"


def _write_manifest(config: RunConfig, kp: KnotPresentation, record: list | None) -> list:
    """Write family_manifest.json and return its record [key, size, crc32].

    key is the sha256 of the manifest's inputs that the cache entry's name
    does not fix (source kind, source, q, p values), and size and crc32 are
    those of the manifest's bytes.  Given a record of the same key, a
    manifest that still has its size and CRC-32 is left alone, with no
    member built, and any other is rewritten, each member built once.  The
    entry's name fixes the rest of the manifest's text through the schema
    and package versions, so a change to that text must bump SCHEMA_VERSION
    or the package version; the tests pin one manifest's digest to each
    SCHEMA_VERSION.
    """
    inputs = [config.source_kind, config.source, config.q, config.p_values]
    key = hashlib.sha256(json.dumps(inputs).encode()).hexdigest()
    recorded = tuple(record[1:]) if record is not None and record[0] == key else None
    # the manifest draws the members one at a time; the spectra need none
    chunks = functools.partial(_manifest_chunks, config, kp)
    return [key, *_write(config.out_dir / "family_manifest.json", chunks, recorded=recorded)]


def _refuse_long_slope(config: RunConfig, kp: KnotPresentation) -> None:
    """Raises at the first kept p whose power of kp's longitude word_power refuses."""
    for p in config.kept_p:
        refuse_long_power(len(kp.longitude), p)


def _refuse_long_output(config: RunConfig, kp: KnotPresentation, command: str) -> None:
    """Raises if the kept p's filling relators would put more than
    MAX_EXPORT_LETTERS longitude letters into command's output: the sum over
    the kept p of |p| * |longitude|."""
    letters = len(kp.longitude) * sum(map(abs, config.kept_p))
    if letters > MAX_EXPORT_LETTERS:
        raise KnotSurgeryError(
            f"the slopes' longitude powers would total {letters} letters,"
            f" past the {command} limit {MAX_EXPORT_LETTERS}"
        )


def _slopes(config: RunConfig) -> Iterator[SurgerySlope]:
    """The command's slopes, settled before its knot loads: the slope q/p of
    each kept p (RunConfig.kept_p) in input order, drawn one at a time, with
    a skip line printed for each other p as the draws reach it.

    With no p kept, every skip line is printed and ValueError raised at once,
    so nothing is loaded, searched or written.
    """

    def drawn() -> Iterator[SurgerySlope]:
        for p in config.p_values:
            if p in config.kept_p:
                yield SurgerySlope(p, config.q)
            else:
                print(f"skip p={p}: gcd(p, {config.q}) != 1")

    if not config.kept_p:
        list(drawn())  # a skip line for each p
        raise ValueError("no slope left after gcd filter")
    return drawn()


def cmd_knot(config: RunConfig) -> int:
    kp, _ = load_knot(config)
    suite = config.suite.close()
    print(f"knot: {config.source_kind} {config.source}")
    print(f"group: {kp.group}")
    print(f"meridian: {kp.group.word_str(kp.meridian)}")
    print(f"longitude: {kp.group.word_str(kp.longitude)}")
    if kp.genus_hint is not None:
        print(f"genus hint: {kp.genus_hint}")
    report = validate_peripheral(kp, suite)
    print(f"abelianization: {report.h1}")
    print("peripheral checks:")
    print(textwrap.indent(report.format(), "  "))
    if not report.ok:
        # the Alexander polynomial below is defined only for a knot group
        return 1
    alexander = fox_alexander(kp)
    print(f"alexander: {alexander}")
    if config.out_dir is not None:
        names = kp.group.generators
        document = {
            "schema_version": SCHEMA_VERSION,
            "source": {"kind": config.source_kind, "value": config.source},
            "presentation": presentation_to_json(kp.group),
            "meridian": word_to_json(kp.meridian, names),
            "longitude": word_to_json(kp.longitude, names),
            "genus_hint": kp.genus_hint,
            "abelianization": str(report.h1),
            "alexander": str(alexander),
            "peripheral_ok": report.ok,
        }
        _write(config.out_dir / "knot.json", json.dumps(document, indent=2) + "\n")
    return 0


def cmd_family(config: RunConfig) -> int:
    started = time.perf_counter()
    if config.out_dir is None:
        raise ValueError("family requires --out")
    pending = _slopes(config)
    kp, source = load_knot(config)
    _refuse_long_slope(config, kp)
    _refuse_long_output(config, kp, "family")
    slopes = list(pending)  # prints the skip lines
    labels = [f"p={slope.p}" for slope in slopes]
    spectra, hits = compute_spectra(slopes, config, source, kp)

    csv_lines = ["label," + ",".join(spectra[0].target_names)]
    for label, spectrum in zip(labels, spectra):
        csv_lines.append(label + "," + ",".join(str(c) for c in spectrum.counts))
    _write(config.out_dir / "spectra.csv", "\n".join(csv_lines) + "\n")

    report = distinguish_report(list(zip(labels, spectra)))
    text = report.format()
    _write(config.out_dir / "distinguish_report.txt", text + "\n")
    print(text)
    meta = {
        "schema_version": SCHEMA_VERSION,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "elapsed_ms": int((time.perf_counter() - started) * 1000),
        "cache_hits": hits,
    }
    _write(config.out_dir / "run_meta.json", json.dumps(meta, indent=2) + "\n")
    return 0 if report.all_distinguished else 3


def cmd_verify(config: RunConfig) -> int:
    slopes = _slopes(config)
    kp, _ = load_knot(config)
    _refuse_long_slope(config, kp)
    suite = config.suite.close()
    # the third side: each slope's spectrum read off the knot group's slope lattices
    lattices = _slope_lattices(kp, suite)
    halves = family_members(kp, config.q, config.p_values)
    lines = []
    all_ok = True
    # each skip line is printed as zip reaches it, the last ones too
    for slope, half in zip(slopes, halves):
        routes = [tietze_simplify(g) for g in (dehn_surgery_group(kp, slope), half.presentation)]
        # the two routes usually simplify to one presentation, decomposed and searched once
        ab_surgery, ab_half = map(abelianization, routes)
        spec_surgery, spec_half = (hom_spectrum(g, suite) for g in routes)
        ok = ab_surgery == ab_half and (
            spec_surgery == spec_half == _spectra(config.suite.names, lattices, (slope,))[0]
        )
        all_ok = all_ok and ok
        status = "PASS" if ok else "FAIL"
        detail = f"H1 {ab_surgery} vs {ab_half}, spectra over {len(suite)} targets"
        line = f"p={slope.p} q={config.q}: {detail}: {status}"
        lines.append(line)
        print(line)
    if config.out_dir is not None:
        _write(config.out_dir / "verify_report.txt", "\n".join(lines) + "\n")
    return 0 if all_ok else 1


def cmd_export(config: RunConfig) -> int:
    if config.out_dir is None:
        raise ValueError("export requires --out")
    slopes = _slopes(config)  # the knot group reads no slope, but is refused alike
    kp, _ = load_knot(config)
    if config.construction == "knot":
        path = config.out_dir / "knot_group.g"
        _write(path, to_free_group_script(kp.group))
        print(f"wrote {path}")
        return 0
    _refuse_long_slope(config, kp)
    _refuse_long_output(config, kp, "export")
    if config.construction == "surgery":
        groups = ((slope, dehn_surgery_group(kp, slope)) for slope in slopes)
    else:  # "half" or "double": the double is presented as one half
        halves = family_members(kp, config.q, config.p_values)
        groups = ((slope, half.presentation) for slope, half in zip(slopes, halves))
    for slope, presentation in groups:
        path = config.out_dir / f"{config.construction}_q{config.q}_p{slope.p}.g"
        _write(path, to_free_group_script(presentation))
        print(f"wrote {path}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of main; built on the first call, not at import, and then kept."""
    parser = argparse.ArgumentParser(
        prog="knotsurgery",
        description="Knot groups, surgery quotients, and finite-quotient invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    knot = sub.add_parser("knot", help="inspect a knot presentation")
    family = sub.add_parser("family", help="build and distinguish a surgery family")
    verify = sub.add_parser("verify", help="cross-check surgery against the doubled route")
    export = sub.add_parser("export", help="write presentations as algebra-system scripts")
    for p in (knot, family, verify, export):
        p.add_argument("--braid", help="braid word of signed integers, e.g. '1 1 1' or '1 -2 1 -2'")
        p.add_argument("--builtin", help="builtin knot name: unknot, trefoil, fig8")
        p.add_argument("--monodromy", help="path to a fibered-knot JSON file")
        if p is not export:  # export writes presentations and reads no target
            p.add_argument("--targets", default="standard",
                           help="'standard', 'extended', or a target-suite JSON path")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        if p is family:  # the only command with a cache
            p.add_argument("--no-cache", action="store_true", help="disable the slope-lattice cache")
        if p is not knot:
            p.add_argument("--q", type=int, default=1, help="slope numerator q >= 1")
            p.add_argument("--p", dest="p_spec", default="1",
                           help="p values: comma list and a..b ranges, e.g. '1..6'")
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
    q = getattr(args, "q", 1)
    p_values = parse_p_spec(args.p_spec) if hasattr(args, "p_spec") else ()
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if q > MAX_Q:
        raise KnotSurgeryError(f"q must be <= {MAX_Q}, got {q}")
    return RunConfig(
        source_kind=kind,
        source=source,
        q=q,
        p_values=p_values,
        targets=getattr(args, "targets", "standard"),
        out_dir=args.out,
        cache=not getattr(args, "no_cache", False),
        construction=getattr(args, "construction", "surgery"),
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    commands = {
        "knot": cmd_knot,
        "family": cmd_family,
        "verify": cmd_verify,
        "export": cmd_export,
    }
    try:
        config = config_from_args(args)
        return commands[args.command](config)
    except PeripheralValidationError as exc:
        print(exc)
        return 1
    except ClosureCapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (KnotSurgeryError, ValueError, OSError) as exc:  # a JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
