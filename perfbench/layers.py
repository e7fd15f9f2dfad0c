"""Traced in-process run of the twocovers CLI, and the per-layer metrics drawn
from its spans.

The traced run calls ``twocovers.cli.main`` in this process.  Each layer's
public functions are wrapped at the module attribute their caller looks up at
call time, one span is recorded per call, and every attribute is restored
afterwards.  Per-element ``Poly``/``Fp`` arithmetic is never wrapped: it runs
millions of times and the wrapper would swamp it.

A span is a dict with ``id``, ``name``, ``start``, ``end``, ``parent`` (the id
of the enclosing span or None), ``run`` and ``attrs``.  A span's self time is
its duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# counting.small_* / counting.large_* split fields by size q, not by which
# kernel the program picks, so the split survives a change of kernel.
SMALL_FIELD_MAX_Q = 4096

INDEPENDENT_STATUS = "independent-candidate"
UNFACTORED_STATUS = "unfactored"


class Recorder:
    """Spans of one traced run, kept in memory until the run ends."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def wrap(self, fn, name, attrs=None):
        """fn with one span per call.  name is a string or a function of the
        call's arguments; attrs, if given, maps the arguments to a dict."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name if isinstance(name, str) else name(*args, **kwargs),
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id,
                "attrs": attrs(*args, **kwargs) if attrs else {},
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()

        return wrapper


def write_jsonl(spans, path):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# span arithmetic


def duration(span):
    return span["end"] - span["start"]


def _union_length(intervals):
    total = 0.0
    reach = None
    for lo, hi in sorted(intervals):
        if reach is None or lo > reach:
            total += hi - lo
            reach = hi
        elif hi > reach:
            total += hi - reach
            reach = hi
    return total


def self_times(spans):
    """{span id: duration minus the union of its children's intervals}."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        covered = _union_length(
            (max(c["start"], s["start"]), min(c["end"], s["end"])) for c in children[s["id"]]
        )
        out[s["id"]] = duration(s) - covered
    return out


def coverage(spans, wall):
    """Share of the traced wall time spent inside some span."""
    roots = [(s["start"], s["end"]) for s in spans if s["parent"] is None]
    return _union_length(roots) / wall


# ---------------------------------------------------------------------------
# call boundaries


class _TimedCall:
    """Stands in for the census polynomial h so that each h(t) is a span."""

    def __init__(self, obj, call):
        self._obj = obj
        self._call = call

    def __call__(self, *args):
        return self._call(*args)

    def __getattr__(self, name):
        return getattr(self._obj, name)


def _count_rhs_attrs(f_coeffs, p, k=1, *rest, **kwargs):
    q = p**k
    steps = len(f_coeffs) - 1
    return {"p": p, "k": k, "q": q, "deg": steps, "horner_steps": q * steps}


def _count_space_attrs(cubic_coeffs, disc_coeffs, p, k=1, *rest, **kwargs):
    q = p**k
    steps = len(cubic_coeffs) - 1 + len(disc_coeffs) - 1
    return {"p": p, "k": k, "q": q, "deg": None, "horner_steps": q * steps}


def load_modules():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    names = ("algebra", "cli", "constructions", "counting", "curves", "twists", "verify", "zeta")
    return {n: importlib.import_module(f"twocovers.{n}") for n in names}


def boundaries(mods, recorder):
    """(owner, attribute, wrapper factory) for every wrapped call boundary.
    The owner is the module (or class) the caller looks the name up in."""
    Poly = mods["algebra"].Poly

    def span(name, attrs=None):
        return lambda fn: recorder.wrap(fn, name, attrs)

    def family_name(A, *args, **kwargs):
        return "constructions.build_family" + ("_sym" if isinstance(A, Poly) else "_num")

    def verify_name(stem):
        # A = None asks for the check over Q[A]
        return lambda A=None, *args, **kwargs: f"verify.{stem}" + ("_sym" if A is None else "_A")

    def timed_h(genus5_poly):
        def wrapper(A):
            h = genus5_poly(A)
            return _TimedCall(h, recorder.wrap(h.__call__, "twists.h_eval"))

        return wrapper

    out = []
    for module in ("cli", "zeta", "constructions"):
        out.append((mods[module], "build_family", span(family_name)))
    for module in ("verify", "constructions"):
        out.append((mods[module], "covering_maps", span("constructions.covering_maps")))
    out += [
        (mods["twists"], "odd_covering_maps", span("constructions.odd_covering_maps")),
        (mods["curves"], "hyperelliptic_genus", span("curves.hyperelliptic_genus")),
        (mods["curves"], "squarefree", span("algebra.squarefree")),
        (mods["counting"], "find_irreducible", span("algebra.find_irreducible")),
        (mods["verify"], "verify_thm1", span("verify.thm1")),
        (mods["verify"], "verify_thm2", span("verify.thm2")),
        (mods["verify"], "verify_maps_on_curve", span(verify_name("maps_on_curve"))),
        (mods["verify"], "verify_independence", span("verify.independence")),
        (mods["verify"], "verify_quotients", span(verify_name("quotients"))),
        (mods["zeta"], "affine_count_rhs", span("counting.count", _count_rhs_attrs)),
        (mods["zeta"], "affine_count_space", span("counting.count", _count_space_attrs)),
        (mods["zeta"], "is_good_prime", span("zeta.is_good_prime")),
    ]
    for fn in ("count_weierstrass", "count_hyperelliptic", "count_space_curve"):
        out.append((mods["zeta"], fn, span("zeta.count")))
    for fn in ("lpoly_weierstrass", "lpoly_hyperelliptic", "lpoly_space_curve"):
        for module in ("cli", "zeta"):
            out.append((mods[module], fn, span("zeta.lpoly")))
    for fn in ("lpoly_divides", "lpoly_irreducible_over_Z"):
        out.append((mods["zeta"], fn, span("zeta.lpoly")))
    out += [
        (mods["twists"], "genus5_poly", timed_h),
        (mods["twists"], "squarefree_part", span("twists.squarefree_part")),
        (mods["twists"], "factorize", span("twists.factorize")),
        (mods["twists"], "independence_screen", span("twists.screen")),
        (mods["constructions"].OddCoveringMaps, "twisted_image", span("twists.cover_image")),
    ]
    return out


@contextlib.contextmanager
def patched(points):
    """Install the wrappers; restore every original attribute on exit, also
    when the run raises."""
    saved = []
    try:
        for owner, attr, make in points:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield saved
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def unrestored(saved):
    """Names of wrapped attributes that no longer hold their original."""
    return [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in saved if getattr(o, a) is not orig]


@dataclass
class TracedRun:
    exit_code: int | None
    error: str | None
    stdout: str
    wall: float
    spans: list
    unrestored: list
    field_cache: tuple  # (hits, misses) of counting.field_modulus during the run


def traced_cli_run(argv, run_id):
    """Run the CLI in this process with every boundary wrapped."""
    mods = load_modules()
    recorder = Recorder(run_id)
    cache = mods["counting"].field_modulus
    before = cache.cache_info()
    out = io.StringIO()
    code, error = None, None
    with patched(boundaries(mods, recorder)) as saved:
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = mods["cli"].main(argv)
        except Exception as exc:  # a failing run is reported, not raised
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
    after = cache.cache_info()
    return TracedRun(
        exit_code=code,
        error=error,
        stdout=out.getvalue(),
        wall=wall,
        spans=recorder.spans,
        unrestored=unrestored(saved),
        field_cache=(after.hits - before.hits, after.misses - before.misses),
    )


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(run, cpu_s, stdout_bytes, untraced_wall):
    spans = run.spans
    selft = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def calls(name):
        return len(by_name[name])

    def total(name):
        return sum(duration(s) for s in by_name[name])

    def self_total(name):
        return sum(selft[s["id"]] for s in by_name[name])

    counts = by_name["counting.count"]
    small = [s for s in counts if s["attrs"]["q"] <= SMALL_FIELD_MAX_Q]
    large = [s for s in counts if s["attrs"]["q"] > SMALL_FIELD_MAX_Q]
    counting_s = total("counting.count")
    elements = sum(s["attrs"]["q"] for s in counts)
    fields = {(s["attrs"]["p"], s["attrs"]["k"]) for s in counts}
    hits, misses = run.field_cache

    def genus5(p, k):
        # H is the only genus-5 curve: its right side has degree 11 or 12
        return sum(
            duration(s)
            for s in counts
            if s["attrs"]["deg"] in (11, 12) and (s["attrs"]["p"], s["attrs"]["k"]) == (p, k)
        )

    census = census_counts(run.stdout)
    t_enumerated = calls("twists.h_eval")

    return {
        "cli.cpu_s": cpu_s,
        "cli.stdout_bytes": stdout_bytes,
        "constructions.build_family.calls": calls("constructions.build_family_sym")
        + calls("constructions.build_family_num"),
        "constructions.build_family_sym_s": total("constructions.build_family_sym"),
        "constructions.build_family_num_s": total("constructions.build_family_num"),
        "constructions.covering_maps_s": total("constructions.covering_maps"),
        "constructions.odd_covering_maps_s": total("constructions.odd_covering_maps"),
        "curves.hyperelliptic_genus.calls": calls("curves.hyperelliptic_genus"),
        "curves.hyperelliptic_genus_s": total("curves.hyperelliptic_genus"),
        "algebra.squarefree_s": total("algebra.squarefree"),
        "algebra.find_irreducible.calls": calls("algebra.find_irreducible"),
        "algebra.find_irreducible_s": total("algebra.find_irreducible"),
        "verify.thm1_s": total("verify.thm1"),
        "verify.thm2_s": total("verify.thm2"),
        "verify.maps_on_curve_sym_s": total("verify.maps_on_curve_sym"),
        "verify.maps_on_curve_A_s": total("verify.maps_on_curve_A"),
        "verify.independence_s": total("verify.independence"),
        "verify.quotients_sym_s": total("verify.quotients_sym"),
        "verify.quotients_A_s": total("verify.quotients_A"),
        "counting.calls": len(counts),
        "counting.elements": elements,
        "counting.horner_steps": sum(s["attrs"]["horner_steps"] for s in counts),
        "counting.s": counting_s,
        "counting.elements_per_s": elements / counting_s if counting_s else 0.0,
        "counting.small_s": sum(duration(s) for s in small),
        "counting.small.calls": len(small),
        "counting.large_s": sum(duration(s) for s in large),
        "counting.large.calls": len(large),
        "counting.H.p13.k5_s": genus5(13, 5),
        "counting.H.p11.k5_s": genus5(11, 5),
        "counting.H.p7.k5_s": genus5(7, 5),
        "counting.H.p13.k4_s": genus5(13, 4),
        "counting.field_modulus.hits": hits,
        "counting.field_modulus.misses": misses,
        "counting.field_reuse_ratio": len(counts) / len(fields) if fields else 0.0,
        "zeta.is_good_prime.calls": calls("zeta.is_good_prime"),
        "zeta.is_good_prime_s": total("zeta.is_good_prime"),
        "zeta.lpoly_s": self_total("zeta.lpoly"),
        "zeta.count_overhead_s": self_total("zeta.count"),
        "twists.t_enumerated": t_enumerated,
        "twists.distinct_d": census["distinct_d"],
        "twists.independent": census["independent"],
        "twists.unfactored": census["unfactored"],
        "twists.d_per_t": census["distinct_d"] / t_enumerated if t_enumerated else 0.0,
        "twists.h_eval_s": total("twists.h_eval"),
        "twists.squarefree_part.calls": calls("twists.squarefree_part"),
        "twists.squarefree_part_s": total("twists.squarefree_part"),
        "twists.factorize.calls": calls("twists.factorize"),
        "twists.cover_images_s": total("twists.cover_image"),
        "twists.screen.calls": calls("twists.screen"),
        "twists.screen_s": total("twists.screen"),
        "trace.overhead_s": run.wall - untraced_wall,
        "trace.coverage": coverage(spans, run.wall),
    }


def census_counts(stdout):
    """Record counts from census TSV output; all zero for other commands."""
    lines = stdout.splitlines()
    rows = [line.split("\t") for line in lines[1:]] if lines and lines[0].startswith("t_num\t") else []
    return {
        "distinct_d": sum(1 for r in rows if r[2] != "-"),
        "independent": sum(1 for r in rows if r[-1] == INDEPENDENT_STATUS),
        "unfactored": sum(1 for r in rows if r[-1] == UNFACTORED_STATUS),
    }
