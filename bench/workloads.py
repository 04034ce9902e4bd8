"""The three workloads: catalogs of seeded inputs and the checks on their outputs.

A workload is a cycle of slots.  Each slot has a catalog of inputs
(``variants``), each made by ``random.Random("<workload>/<slot>/<variant>")``
so the catalog is the same in every process.  The run seed picks one
variant per slot and the order of the cycle; the program receives only the
generated inputs.  Because the catalog is finite, every output has a digest
frozen from commit 65d7901 in ``digests.json`` (``bench/freeze.py``
rewrites it).

Every op is checked outside its timed span: by the frozen digest of its
rendered output and, where the output allows it, by an independent exact
oracle (inverses composed both ways, span ranks against the exact-rank
oracle, the chain rule holding, certificates being positive).

Why these workloads (they are cited by name in later changes):

* ``lie-series`` -- truncated inverses (degree 7 and 8, then rendering)
  and group commutators (degree 7) on ``free_lie(3)``.  The largest
  measured cost; nearly all of it is the free-Lie product (associative
  expansion plus ``lie_from_assoc``), ``substitute`` and ``Fraction``
  arithmetic.  It bypasses ``linalg`` (3x3 matrices only), ``fox``,
  ``dsl`` and ``cli``.
* ``script-batch`` -- ``tangentia run <script> --json`` in process on
  seeded scripts over ``polynomial(3)`` and ``metabelian(4)``, a fixed
  one over ``assoc(3)`` and the six shipped corpus scripts.  The path a CLI
  user runs: the non-Lie truncated products, substitution, Fox Jacobians
  of large images, rendering and the JSON dump.  It reaches
  ``lie_from_assoc`` only through the metabelian Fox lift (under 0.1% of
  its self time), so it is the no-change control for work on the Lie
  representation.
* ``certify-lab`` -- one lab call per op: conjugated tangent spans, the
  exact-rank oracle, divergence certificates of polynilpotent witnesses,
  chain-rule checks and divergences of small maps.  Thousands of tiny
  products where per-call overhead matters, and the only workload where
  ``linalg.rref`` dominates.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

COEFFS = (1, -1, 2, -2)


@dataclass
class Op:
    """One benchmark operation: a timed call and its untimed checks."""

    key: str  # catalog key; names the frozen digest
    call: Callable[[], object]  # the timed operation
    render: Callable[[object], str]  # canonical text of the output (digested)
    check: Callable[[object], list] = lambda out: []  # failed oracle checks


@dataclass
class Slot:
    name: str
    variants: int
    make: Callable  # (tangentia, key, random.Random, variant) -> Op


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _render_map(phi):
    return "\n".join(str(f) for f in phi.images)


# -- lie-series -------------------------------------------------------------------

LIE_NAMES = ("x", "y", "z")

# deviations of the three images, as bracket templates over generator
# indices; (1, 2) is [x2, x3] and (0, (0, 1)) is [x1, [x1, x2]]
ROADMAP_SHAPE = ([(1, 2), (0, (0, 1))], [(2, 0)], [])
SHAPE_B = ([(1, 2)], [(0, (0, 2))], [(0, 1)])
PAIR_Q = (([(0, (1, 2))], [], [(0, 1)]), ([(1, 2)], [(2, (2, 0))], []))


def _bracket(gens, template):
    if isinstance(template, int):
        return gens[template]
    return _bracket(gens, template[0]) * _bracket(gens, template[1])


def _relabel(template, perm):
    if isinstance(template, int):
        return perm[template]
    return (_relabel(template[0], perm), _relabel(template[1], perm))


def _lie_map(tg, shape, perm=(0, 1, 2), rng=None):
    """The IA map x_i -> x_i + (deviation i) on free_lie(3), with the
    generators relabelled by ``perm`` and, given ``rng``, a random sign
    on each term."""
    L = tg.free_lie(3, LIE_NAMES)
    gens = L.gens()
    images = [None] * 3
    for i, terms in enumerate(shape):
        f = gens[perm[i]]
        for t in terms:
            term = _bracket(gens, _relabel(t, perm))
            f = f - term if rng and rng.random() < 0.5 else f + term
        images[perm[i]] = f
    return tg.Endomorphism(L, tuple(images))


def _inverse_op(tg, key, phi, k):
    def call():
        inv = tg.truncated_inverse(phi, k)
        return inv, [str(f) for f in inv.images]

    def check(out):
        inv = out[0]
        bad = []
        if not tg.compose(phi, inv, max_degree=k).is_identity_through(k):
            bad.append("compose(phi, inv) is not the identity through k")
        if not tg.compose(inv, phi, max_degree=k).is_identity_through(k):
            bad.append("compose(inv, phi) is not the identity through k")
        return bad

    return Op(key, call, lambda out: "\n".join(out[1]), check)


def _lie_inverse_slot(shape, k):
    def make(tg, key, rng, variant):
        return _inverse_op(tg, key, _lie_map(tg, shape, rng.sample(range(3), 3), rng), k)

    return make


def _fixed_inverse_slot(shape, k):
    def make(tg, key, rng, variant):
        return _inverse_op(tg, key, _lie_map(tg, shape), k)

    return make


def _lie_commutator_slot(pair, k):
    # signs only: relabelling a pair moves its cost by up to 1.6x
    def make(tg, key, rng, variant):
        phi, psi = (_lie_map(tg, shape, rng=rng) for shape in pair)
        return Op(key, lambda: tg.group_commutator(phi, psi, k), _render_map)

    return make


# -- script-batch -----------------------------------------------------------------

# per kind: the variety, its generator names, the invert and commutator
# degrees, and the deviations of the dense map f and the sparse map g as
# monomial templates over generator indices
SCRIPT_KINDS = {
    "assoc": (
        "assoc(3)", ("a", "b", "c"), 8, 7,
        (["[{1},{2}]"], ["{2}*{0}"], ["{0}*{1}"]),
        ([], [], ["[{0},{1}]"]),
    ),
    "polynomial": (
        "polynomial(3)", ("x", "y", "z"), 10, 8,
        (["{1}*{2}", "{1}^2"], ["{2}*{0}"], ["{0}*{1}"]),
        ([], [], ["{0}*{1}"]),
    ),
    "metabelian": (
        "metabelian(4)", ("y1", "y2", "y3", "y4"), 10, 8,
        (["[{1},{2}]", "[[{1},{2}],{3}]"], ["[{2},{3}]"], ["[{0},{3}]"], []),
        ([], [], [], ["[{0},{1}]"]),
    ),
}


def _script_map(names, shape, rng):
    """Images x_i + (deviation i) as script text, with a random sign on
    each term given ``rng``.  Signs only: relabelling the generators or
    mixing products moves a script's cost by up to 1.6x, which seeds
    would turn into run-to-run spread."""
    images = []
    for name, terms in zip(names, shape):
        for t in terms:
            name += (" - " if rng and rng.random() < 0.5 else " + ") + t.format(*names)
        images.append(name)
    return ", ".join(images)


def script_source(kind, rng=None):
    """A script with a dense IA map f and a sparse one g, then every
    command a user runs on them; ``rng`` draws the signs."""
    decl, names, k_inv, k_comm, f_shape, g_shape = SCRIPT_KINDS[kind]
    return "\n".join(
        [
            f"variety {decl} vars {','.join(names)}",
            f"f := auto({_script_map(names, f_shape, rng)})",
            f"g := auto({_script_map(names, g_shape, rng)})",
            "ia-level f",
            "tangent f",
            "jacobian f",
            "divergence f",
            f"invert f --degree {k_inv} as finv",
            f"compose f finv --max-degree {k_inv} as check",
            f"ia-level check --max-degree {k_inv}",
            f"commutator f g --degree {k_comm}",
            "",
        ]
    )


def _script_op(tg, key, path):
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = tg.cli.main(["run", path, "--json"])
        return code, buf.getvalue()

    def check(out):
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        records = json.loads(text)["results"]
        return [
            f"invert of {r['output']['name']} is not an inverse"
            for r in records
            if r["command"] == "invert" and not r["output"]["identity_through_degree"]
        ]

    return Op(key, call, lambda out: f"exit {out[0]}\n{out[1]}", check)


def _generated_script_slot(kind, script_dir, seeded=True):
    def make(tg, key, rng, variant):
        path = os.path.join(script_dir, key.replace("/", "_") + ".tia")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(script_source(kind, rng if seeded else None))
        return _script_op(tg, key, path)

    return make


def _corpus_script_slot(name, src_dir):
    def make(tg, key, rng, variant):
        return _script_op(tg, key, os.path.join(src_dir, "tangentia", "corpus_scripts", f"{name}.tia"))

    return make


# -- certify-lab ------------------------------------------------------------------


SPAN_SAMPLES = (110, 115, 120)


def _span_slot(which):
    def make(tg, key, rng, variant):
        if which == "polynomial":
            V = tg.polynomial(3)
            x, y, z = V.gens()
            gens = [
                tg.Endomorphism(V, (x + y * y, y, z)),
                tg.Endomorphism(V, (x, y + z * z, z)),
                tg.Endomorphism(V, (x, y, z + x * x)),
            ]
        else:
            V = tg.metabelian_lie(4)
            y = V.gens()
            gens = [tg.Endomorphism(V, (y[0] + y[1] * y[2],) + y[1:])]
        # the sampler's own seed is fixed: which samples it draws moved a
        # span's cost by up to 1.4x, and the run seed would turn that into
        # run-to-run spread; the run seed picks the sample count
        samples = SPAN_SAMPLES[variant]

        def check(rep):
            oracle = tg.divergence_kernel_rank(V, 1)
            if rep.rank != oracle:
                return [f"span rank {rep.rank} != oracle rank {oracle}"]
            return [f"basis derivation {D!r} has nonzero divergence"
                    for D in rep.basis if not tg.divergence(D).is_zero()]

        def render(rep):
            levels = sorted(rep.per_level_counts.items())
            basis = "\n".join(repr(D) for D in rep.basis)
            return f"rank {rep.rank} hits {rep.hits} samples {rep.samples_used} levels {levels}\n{basis}"

        return Op(
            key,
            lambda: tg.tangent_span(gens, 1, samples, seed=0, conjugation_rank=1),
            render,
            check,
        )

    return make


def _rank_slot(factory, rank, degree):
    def make(tg, key, rng, variant):
        V = getattr(tg, factory)(rank)
        return Op(key, lambda: tg.divergence_kernel_rank(V, degree), str)

    return make


def _polynilpotent_tuples():
    """Parameter tuples (product bound <= 64, not (1,1)) whose rank-3
    witness is materialized and IA within the detector's default degree
    bound 12 (deg u + 2 <= 12), in a fixed order."""
    out = []
    for k in (2, 3):
        for c in itertools.product(range(1, 8), repeat=k):
            prod = 1
            for ci in c:
                prod *= ci + 1
            if prod > 64 or c == (1, 1):
                continue
            deg = c[0] + 1
            for ci in c[1:-1]:
                deg = deg * (ci + 1) + 1
            if deg <= 10 and deg + 2 < prod:
                out.append(c)
    return out


def _detect_slot(tg, key, rng, variant):
    c = _polynilpotent_tuples()[variant]
    _, psi, _ = tg.build_polynilpotent_witness(c, 3)
    ctx = tg.polynilpotent_context(psi.variety, c)

    def check(cert):
        if cert.verdict != "AbsolutelyWild" or cert.reasons:
            return [f"certificate for {c} is {cert.verdict} {cert.reasons}"]
        return []

    return Op(
        key,
        lambda: tg.detect_divergence_wild(psi, ctx),
        lambda cert: f"{cert.verdict}\n{tg.trace_str(cert.witness.trace)}\n" + "\n".join(cert.trace),
        check,
    )


CERTIFY_VARIETIES = {
    "polynomial": "polynomial",
    "assoc": "free_associative",
    "lie": "free_lie",
    "metabelian": "metabelian_lie",
}


def _random_element(tg, V, rng, lo, hi, terms):
    coeffs = {}
    for _ in range(terms):
        m = rng.choice(tg.monomials_of_degree(V, rng.randint(lo, hi)))
        coeffs[m] = coeffs.get(m, 0) + Fraction(rng.choice(COEFFS))
    return tg.Element(V, coeffs)


def _chain_slot(kind):
    def make(tg, key, rng, variant):
        V = getattr(tg, CERTIFY_VARIETIES[kind])(3)
        # degree-2 deviations keep the assoc check (3-7 ms) clear of the
        # fixed rank op that sits at this workload's median
        top = 2 if kind == "assoc" else 3
        phi, psi = (
            tg.Endomorphism(V, tuple(g + _random_element(tg, V, rng, 2, top, 2) for g in V.gens()))
            for _ in range(2)
        )
        return Op(
            key,
            lambda: tg.chain_rule_check(phi, psi),
            str,
            lambda ok: [] if ok is True else ["chain rule fails"],
        )

    return make


def _divergence_slot(kind):
    def make(tg, key, rng, variant):
        V = getattr(tg, CERTIFY_VARIETIES[kind])(3)
        D = tg.Derivation(V, tuple(_random_element(tg, V, rng, 2, 4, 3) for _ in V.gens()))
        return Op(key, lambda: tg.divergence(D), lambda div: tg.trace_str(div.trace))

    return make


# -- the cycles -------------------------------------------------------------------


def slots(workload, src_dir, script_dir):
    """The slots of one workload's cycle; a slot listed twice draws two
    variants from one catalog."""
    if workload == "lie-series":
        return [
            # the degree-8 inverses, fixed: the cycle's p79 falls among
            # them, and the signs of shape B move its degree-8 cost by 1.2x
            # (x+[y,z]+[x,[x,y]], y+[z,x], z), the ROADMAP reference map
            Slot("inv8-roadmap", 1, _fixed_inverse_slot(ROADMAP_SHAPE, 8)),
            Slot("inv8-b", 1, _fixed_inverse_slot(SHAPE_B, 8)),
            # four draws of one shape, whose relabellings and signs all
            # cost the same (+-5%) at degree 7: the cycle's median falls among them
            *[Slot("inv7-b", 8, _lie_inverse_slot(SHAPE_B, 7))] * 4,
            Slot("comm7-q", 8, _lie_commutator_slot(PAIR_Q, 7)),
        ]
    if workload == "script-batch":
        out = [
            Slot(f"corpus-{name}", 1, _corpus_script_slot(name, src_dir))
            for name in ("nagata", "anick", "bergman", "drensky-exp", "tau", "chein-cubic")
        ]
        # (a+[b,c], b+ca, c+ab) at degree 8, fixed: its cost moves by 1.4x
        # with the signs, and it is 40% of the cycle
        out.append(Slot("assoc", 1, _generated_script_slot("assoc", script_dir, seeded=False)))
        # three polynomial scripts, so that p85 falls mid-block among them
        # and not on the block's cheapest ops
        for kind, count in (("polynomial", 3), ("metabelian", 7)):
            out += [Slot(kind, 8, _generated_script_slot(kind, script_dir))] * count
        return out
    if workload == "certify-lab":
        out = [Slot("span-polynomial", len(SPAN_SAMPLES), _span_slot("polynomial")),
               Slot("span-metabelian", len(SPAN_SAMPLES), _span_slot("metabelian"))]
        for factory, rank, degree in (
            ("free_associative", 3, 3),
            ("metabelian_lie", 4, 3),
            ("metabelian_lie", 4, 4),
            ("polynomial", 4, 3),
            ("polynomial", 4, 4),
        ):
            out.append(Slot(f"rank-{factory}{rank}-d{degree}", 1, _rank_slot(factory, rank, degree)))
        tuples = len(_polynilpotent_tuples())
        out += [Slot("detect", tuples, _detect_slot)] * 2
        for kind in CERTIFY_VARIETIES:
            out.append(Slot(f"chain-{kind}", 8, _chain_slot(kind)))
            out.append(Slot(f"divergence-{kind}", 8, _divergence_slot(kind)))
        return out
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("lie-series", "script-batch", "certify-lab")


def make_op(tg, workload, slot, variant):
    key = f"{workload}/{slot.name}/{variant}"
    return slot.make(tg, key, random.Random(key), variant)


def build(tg, workload, seed, src_dir, script_dir):
    """The cycle of ops for one seed: one variant per slot, in seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    ops = [make_op(tg, workload, s, rng.randrange(s.variants))
           for s in slots(workload, src_dir, script_dir)]
    rng.shuffle(ops)
    return ops


def catalog(tg, workload, src_dir, script_dir):
    """Every op a seed can pick, for freezing digests."""
    unique = {s.name: s for s in slots(workload, src_dir, script_dir)}
    return [make_op(tg, workload, s, v) for s in unique.values() for v in range(s.variants)]
