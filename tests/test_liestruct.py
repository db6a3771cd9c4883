"""Algebra construction: sl2-triple, centralizer basis, dual ladders.

The centralizer basis is cross-checked against an independent nullspace
computation, and the dual ladder families against the full biorthonormality
relation; both are exact."""

import copy
import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings, strategies as st

from conftest import (centralizer_oracle, ctx_of, dual_bases_reference, gen, grade_of,
                      sharp_project, sl_basis)
from test_wbracket import SMALL_SHAPES
from walgebra import serialize
from walgebra.dsreduction import ReductionCtx
from walgebra.errors import NoSolution, NormalizationImpossible, SuperEqualParts, WAlgebraError
from walgebra.liestruct import (GenIndex, PartitionSpec, StructureKernel, centralizer_basis,
                                dual_bases, pairing_index, pairings)

F = Fraction

# the specs every structural property is swept over
SWEEP = [
    ("sl", (2,), ()),
    ("sl", (3,), ()),
    ("sl", (2, 1), ()),
    ("sl", (2, 2), ()),
    ("sl", (2, 1, 1), ()),
    ("sl", (3, 2), ()),
    ("sl", (4, 3), ()),
    ("sl_super", (2,), (1,)),
    ("sl_super", (3,), (2,)),
    ("sl_super", (3, 1), (2,)),
]


def test_partition_validation():
    with pytest.raises(WAlgebraError):
        PartitionSpec("sl", (1, 2))
    with pytest.raises(WAlgebraError):
        PartitionSpec("sl", ())
    with pytest.raises(WAlgebraError):
        PartitionSpec("sl", (2, 0))
    with pytest.raises(WAlgebraError):
        PartitionSpec("sl", (2, True))
    with pytest.raises(WAlgebraError):
        PartitionSpec("so", (2,))
    with pytest.raises(WAlgebraError):
        PartitionSpec("sl", (2,), (1,))
    with pytest.raises(WAlgebraError):
        PartitionSpec("sl_super", (2,))
    with pytest.raises(SuperEqualParts):
        PartitionSpec("sl_super", (2,), (2,))
    with pytest.raises(SuperEqualParts):
        PartitionSpec("sl_super", (2, 1), (3,))


def test_sl2_triple_relations():
    for kind, p1, p2 in SWEEP:
        ctx = ctx_of(kind, p1, p2)
        e, f, x = ctx.e, ctx.f, ctx.x
        h = x.scale(2)
        assert e.comm(f) == h
        assert h.comm(e) == e.scale(2)
        assert h.comm(f) == f.scale(-2)
        assert ctx.pair(e, f) == 1


def test_generator_count_and_weights_2_1():
    ctx = ctx_of("sl", (2, 1))
    gens = ctx.centralizer().gens
    assert len(gens) == 4
    assert sorted(g.t for g in gens) == [F(1), F(3, 2), F(3, 2), F(2)]


def test_generator_count_formula():
    # number of generators = sum over block pairs of min(m_i, m_j), minus one
    for kind, p1, p2 in SWEEP:
        ctx = ctx_of(kind, p1, p2)
        sizes = ctx.spec.sizes
        expect = sum(min(a, b) for a in sizes for b in sizes) - 1
        assert len(ctx.centralizer().gens) == expect


def test_super_parity_tags():
    ctx = ctx_of("sl_super", (3, 1), (2,))
    for g in ctx.centralizer().gens:
        cross = (g.i <= 2) != (g.j <= 2)  # blocks 1,2 are even, block 3 odd
        assert g.parity == (1 if cross else 0)


def test_centralizer_matches_nullspace_oracle():
    for kind, p1, p2 in SWEEP:
        ctx = ctx_of(kind, p1, p2)
        cdata = ctx.centralizer()
        oracle = centralizer_oracle(ctx)
        assert len(oracle) == len(cdata.gens)
        # membership via the sharp projector, which is the identity on ker ad f
        for m in oracle:
            assert not ctx.f.comm(m)
            assert sharp_project(ctx, cdata, m) == m


def test_basis_elements_are_graded_eigenvectors():
    for kind, p1, p2 in SWEEP:
        ctx = ctx_of(kind, p1, p2)
        cdata = ctx.centralizer()
        for g in cdata.gens:
            q = cdata.basisF[g]
            assert grade_of(ctx, q) == -cdata.delta[g]
            assert cdata.delta[g] == g.t - 1


def test_full_biorthonormality():
    for kind, p1, p2 in SWEEP:
        ctx = ctx_of(kind, p1, p2)
        cdata = ctx.centralizer()
        for g in cdata.gens:
            for n, up in enumerate(cdata.dualFamily[g]):
                for h in cdata.gens:
                    for m, down in enumerate(cdata.adFPowers[h]):
                        want = 1 if (g == h and n == m) else 0
                        assert ctx.pair(up, down) == want


def test_trace_pairing_equals_product_supertrace():
    ctx = ctx_of("sl_super", (3,), (2,))
    basis = sl_basis(ctx)
    for a in basis:
        for b in basis:
            assert ctx.pair(a, b) == a.mul(b).supertrace() * ctx.form_scale


def test_sharp_projection_idempotent():
    for kind, p1, p2 in SWEEP:
        ctx = ctx_of(kind, p1, p2)
        cdata = ctx.centralizer()
        for b in sl_basis(ctx):
            once = sharp_project(ctx, cdata, b)
            assert sharp_project(ctx, cdata, once) == once


def test_ladder_families_end_in_the_kernels():
    for kind, p1, p2 in SWEEP:
        ctx = ctx_of(kind, p1, p2)
        cdata = ctx.centralizer()
        for g in cdata.gens:
            # the dual sits in ker ad e; 2*delta applications of ad f later the
            # string bottoms out in ker ad f
            assert not ctx.e.comm(cdata.basisE[g])
            bottom = cdata.dualFamily[g][-1]
            assert not ctx.f.comm(bottom)
            if cdata.delta[g] > 0:
                # a genuine commutator is supertraceless, so it lies in sl and
                # the sharp projection fixes it
                assert sharp_project(ctx, cdata, bottom) == bottom


def _buildable(shape) -> bool:
    try:
        ctx_of(*shape)
    except WAlgebraError:
        return False
    return True


def _entries(m):
    items = list(m.entries.items())
    assert all(type(v) is Fraction for _, v in items)
    return items


@pytest.mark.parametrize("shape", [s for s in SMALL_SHAPES if _buildable(s)]
                         + [("sl", (5, 3, 2), ()), ("sl_super", (4,), (2,))])
def test_dual_bases_on_ints_match_the_fraction_reference(shape):
    # the int commutator walks store the Fraction walks' matrices, entry by
    # entry and in the same order, and the same pairing index
    ctx = ctx_of(*shape)
    got, want = centralizer_basis(ctx), centralizer_basis(ctx)
    dual_bases(ctx, got)
    dual_bases_reference(ctx, want)
    for g in want.gens:
        assert _entries(got.basisE[g]) == _entries(want.basisE[g]), (shape, g)
        for fam in ("dualFamily", "adFPowers"):
            mats, refs = getattr(got, fam)[g], getattr(want, fam)[g]
            assert [_entries(m) for m in mats] == [_entries(m) for m in refs], (shape, g, fam)
    assert got.dual_at == want.dual_at
    assert all(type(w) is Fraction for ws in got.dual_at.values() for _, w in ws)


def test_gen_lookup_weight_bounds():
    ctx = ctx_of("sl", (3, 2))
    cdata = ctx.centralizer()
    assert gen(ctx, "5/2", 1, 2) in cdata.delta
    assert gen(ctx, "5/2", 2, 1) in cdata.delta
    assert gen(ctx, 3, 1, 1) in cdata.delta
    assert gen(ctx, 3, 2, 2) not in cdata.delta


def test_supercommutator_refuses_a_mixed_parity_matrix():
    ctx = ctx_of("sl_super", (2,), (1,))
    even = ctx.unit(1, 1, 1, 2)
    mixed = even + ctx.unit(1, 2, 1, 1)
    assert mixed.parity() is None
    with pytest.raises(WAlgebraError, match="mixed-parity"):
        mixed.comm(even)
    with pytest.raises(WAlgebraError, match="mixed-parity"):
        even.comm(mixed)


def test_generator_keys_hash_once(monkeypatch):
    for shape in [("sl", (3, 2), ()), ("sl_super", (3,), (2,))]:
        ctx = ctx_of(*shape)
        gens = ctx.centralizer().gens
        for g in gens:
            plain = GenIndex(F(g.t), g.i, g.j, g.parity)
            assert type(plain.t) is Fraction
            assert hash(g) == hash(plain) and hash(g.t) == hash(F(g.t))
            assert g == plain and plain == g and g.t == plain.t
            assert str(g) == str(plain) == f"q[{F(g.t)}]({g.i},{g.j})"
            assert repr(g) == repr(plain) and repr(g.t) == repr(F(g.t))
            assert {plain: 1}[g] == 1 and {g: 1}[plain] == 1
            # copy, deepcopy and pickle rebuild the weight as (num, den)
            for h in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
                assert h == g and hash(h) == hash(g) and repr(h) == repr(g)
            for t in (copy.copy(g.t), copy.deepcopy(g.t), pickle.loads(pickle.dumps(g.t))):
                assert t == g.t and hash(t) == hash(g.t) and repr(t) == repr(g.t)
            back = serialize.gen_from_json(ctx, json.loads(json.dumps(serialize.gen_to_json(g))))
            assert back == g and hash(back) == hash(g) and repr(back) == repr(g)
        assert repr(ctx.gen(F(3, 2), 1, 2)) == (
            "GenIndex(t=Fraction(3, 2), i=1, j=2, parity=%d)" % ctx.gen(F(3, 2), 1, 2).parity)
        # monomials over GenIndex and AffVar factors hash without a Fraction hash
        rvars = ReductionCtx(ctx).variables
        monos = [((a, 0), (b, 2)) for a in gens for b in gens]
        monos += [((u, 1),) for u in rvars] + [((u, 0), (v, 0)) for u in rvars for v in rvars]
        calls = []
        real = Fraction.__hash__

        def counting(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(Fraction, "__hash__", counting)
        assert hash(F(1, 3)) == real(F(1, 3)) and len(calls) == 1  # the patch counts
        calls.clear()
        index = {m: i for i, m in enumerate(monos)}
        assert all(index[m] == i for i, m in enumerate(monos))
        assert len({hash(m) for m in monos}) > 1
        assert not calls
        monkeypatch.undo()


def _partitions(n, top=None):
    """Every partition of n, parts non-increasing."""
    if not n:
        yield ()
    for k in range(min(n, top or n), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


# every shape of both kinds with at most 6 boxes (sl(n|n) is excluded)
SMALL_SHAPES = [("sl", p, ()) for n in range(2, 7) for p in _partitions(n)] + [
    ("sl_super", p1, p2) for n1 in range(1, 6) for n2 in range(1, 7 - n1) if n1 != n2
    for p1 in _partitions(n1) for p2 in _partitions(n2)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SMALL_SHAPES))
def test_structure_kernel_matches_the_matrix_path(shape):
    # the int kernel against SuperMatrix.comm, pairings and ctx.pair: on the
    # ladder pairs of the chain sweep's constants (mid, tail, head and top)
    # over the dual basis, and on every affine-table pair over the dual rungs
    # of p_vars with f as one more row, whose coordinate is (f | [u, v])
    try:
        ctx = ctx_of(*shape)
    except NormalizationImpossible:
        reject()  # str(ef) = 0: not an algebra of the workbench
    cdata = ctx.centralizer()
    raised = [m for g in cdata.gens for m in cdata.adFPowers[g][1:]]
    dual = [m for g in cdata.gens for m in cdata.dualFamily[g]]
    basis = [cdata.basisF[g] for g in cdata.gens]
    kernel = StructureKernel(ctx, cdata.dual_at)
    for xs, ys in [(raised, dual), (raised, basis), (basis, dual), (basis, basis)]:
        for x in xs:
            for y in ys:
                want = tuple(pairings(cdata.dual_at, x.comm(y)).items()), ctx.pair(x, y)
                assert kernel(x, y) == want, shape
    try:
        rctx = ReductionCtx(ctx)
    except NoSolution:
        return
    p_duals = [cdata.dualFamily[v.g][v.n] for v in rctx.p_vars]
    affine = StructureKernel(ctx, pairing_index(ctx, p_duals + [ctx.f]))
    p_index = pairing_index(ctx, p_duals)
    for u in rctx.variables:
        for v in rctx.variables:
            x, y = rctx.matrix[u], rctx.matrix[v]
            z = x.comm(y)
            coords = tuple(pairings(p_index, z).items())
            if ctx.pair(ctx.f, z):
                coords += ((len(p_duals), ctx.pair(ctx.f, z)),)
            assert affine(x, y) == (coords, ctx.pair(x, y)), (shape, u, v)


def test_structure_kernel_refuses_a_mixed_parity_matrix():
    ctx = ctx_of("sl_super", (2,), (1,))
    kernel = StructureKernel(ctx, ctx.centralizer().dual_at)
    even = ctx.unit(1, 1, 1, 2)
    mixed = even + ctx.unit(1, 2, 1, 1)
    for x, y in [(mixed, even), (even, mixed)]:
        with pytest.raises(WAlgebraError, match="mixed-parity"):
            kernel(x, y)
