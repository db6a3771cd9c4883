"""Algebra construction: sl2-triple, centralizer basis, dual ladders.

The centralizer basis is cross-checked against an independent nullspace
computation, and the dual ladder families against the full biorthonormality
relation; both are exact."""

from fractions import Fraction

import pytest

from conftest import ctx_of, gen
from walgebra.errors import SuperEqualParts, WAlgebraError
from walgebra.liestruct import PartitionSpec, centralizer_oracle, sharp_project

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
            assert ctx.grade_of(q) == -cdata.delta[g]
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


def test_sharp_projection_idempotent():
    for kind, p1, p2 in SWEEP:
        ctx = ctx_of(kind, p1, p2)
        cdata = ctx.centralizer()
        for b in ctx.sl_basis():
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


def test_gen_lookup_weight_bounds():
    ctx = ctx_of("sl", (3, 2))
    cdata = ctx.centralizer()
    assert gen(ctx, "5/2", 1, 2) in cdata.delta
    assert gen(ctx, "5/2", 2, 1) in cdata.delta
    assert gen(ctx, 3, 1, 1) in cdata.delta
    assert gen(ctx, 3, 2, 2) not in cdata.delta
