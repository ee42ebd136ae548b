"""The generator-based group engine: Schreier-Sims chains, the exact group test, ladder polytopes."""

import itertools
import warnings
from math import factorial

import numpy as np
import pytest

from helpers import (cell24, check_realizes, complete_edges, cross_polytope, frame, hypercube,
                     is_orthogonal, realized_but_not_a_group)
from polysym import autgroup, make_polytope
from polysym.autgroup import (
    PermutationSet,
    automorphisms,
    compose,
    identity_perm,
    uncolored,
)
from polysym.colorings import orbit_coloring
from polysym.errors import LimitExceeded
from polysym.oracle import brute_force_group
from polysym.reconstruct import (
    build_artifacts,
    linear_group,
    orthogonal_group,
    pseudo_inverse,
)


def from_cycles(n, *cycles):
    img = list(range(n))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            img[a] = b
    return tuple(img)


def closure(n, gens):
    """Every product of the generators, by breadth-first search: the reference enumeration."""
    seen = {identity_perm(n)}
    frontier = [identity_perm(n)]
    for p in frontier:
        for g in gens:
            q = compose(g, p)
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return sorted(seen)


def signed_perms(d):
    """Hyperoctahedral group B_d on the 2d points i (= +e_i) and d + i (= -e_i)."""
    swap = from_cycles(2 * d, (0, 1), (d, d + 1))
    rotate = from_cycles(2 * d, tuple(range(d)), tuple(range(d, 2 * d)))
    flip = from_cycles(2 * d, (0, d))
    return [swap, rotate, flip]


rng = np.random.default_rng(2108)
GENERATOR_SETS = {
    "cyclic16": (16, [from_cycles(16, tuple(range(16)))], 16),
    "dihedral10": (10, [from_cycles(10, tuple(range(10))),
                        from_cycles(10, *[(i, 9 - i) for i in range(5)])], 20),
    "psl27": (7, [from_cycles(7, tuple(range(7))), from_cycles(7, (0, 1), (2, 4))], 168),
    "frobenius21": (7, [from_cycles(7, tuple(range(7))), from_cycles(7, (1, 2, 4), (3, 6, 5))], 21),
    "sym8": (8, [from_cycles(8, (0, 1)), from_cycles(8, tuple(range(8)))], factorial(8)),
    "alt9": (9, [from_cycles(9, (0, 1, 2)), from_cycles(9, tuple(range(9)))], factorial(9) // 2),
    "b5": (10, signed_perms(5), 3840),
    "intransitive": (12, [from_cycles(12, (0, 1, 2)), from_cycles(12, (3, 4), (5, 6)),
                          from_cycles(12, (7, 8, 9, 10, 11), (0, 2, 1))], 3 * 2 * 5),
    "random12": (12, [tuple(int(x) for x in rng.permutation(12)) for _ in range(2)], None),
    "random20": (20, [tuple(int(x) for x in rng.permutation(20)) for _ in range(3)], None),
}


class TestSchreierSims:
    @pytest.mark.parametrize("name", sorted(GENERATOR_SETS))
    def test_order_matches_sympy(self, name):
        combinatorics = pytest.importorskip("sympy.combinatorics")
        n, gens, known = GENERATOR_SETS[name]
        group = PermutationSet(n, gens)
        reference = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(g)) for g in gens]).order()
        assert group.order == reference
        if known is not None:
            assert group.order == known

    @pytest.mark.parametrize("name", ["dihedral10", "psl27", "b5", "intransitive"])
    def test_members_match_closure(self, name):
        n, gens, _ = GENERATOR_SETS[name]
        group = PermutationSet(n, gens)
        assert list(group.perms) == closure(n, gens)
        assert all(p in group for p in group.perms[::7])

    def test_membership_rejects_outsiders(self):
        n, gens, _ = GENERATOR_SETS["psl27"]
        group = PermutationSet(n, gens)
        members = set(group.perms)
        outsiders = [p for p in itertools.permutations(range(n)) if p not in members]
        assert len(outsiders) == factorial(7) - 168
        assert not any(p in group for p in outsiders[::50])
        assert (0, 0, 1, 2, 3, 4, 5) not in group and (0, 1) not in group

    def test_base_seed_does_not_change_group(self):
        n, gens, _ = GENERATOR_SETS["b5"]
        a = PermutationSet(n, gens)
        b = PermutationSet(n, gens, base=(7, 3))
        assert a.perms == b.perms  # equal member listings: same n, order and members


class TestExactGroupTest:
    def test_non_closed_set_rejected_at_n16(self):
        # the 16 rotations of a regular 16-gon, each less one
        angles = 2 * np.pi * np.arange(16) / 16
        phi = make_polytope(2, np.column_stack([np.cos(angles), np.sin(angles)])).phi
        shift = from_cycles(16, tuple(range(16)))
        powers = [identity_perm(16)]
        for _ in range(15):
            powers.append(compose(shift, powers[-1]))
        assert brute_force_group(phi, candidates=powers, flavor="orthogonal").order == 16
        for drop in (1, 8, 15):
            assert realized_but_not_a_group(phi, powers[:drop] + powers[drop + 1:])

    def test_missing_inverse_rejected_at_n16(self):
        # the 4-cube's 120-degree turn x -> (x3, x1, x2, x4), without its inverse
        cube = hypercube(4)
        verts = [tuple(v) for v in cube.vertices.tolist()]
        three = tuple(verts.index((v[2], v[0], v[1], v[3])) for v in verts)
        assert realized_but_not_a_group(cube.phi, [identity_perm(16), three])
        group = brute_force_group(cube.phi, candidates=[identity_perm(16), three,
                                                        compose(three, three)], flavor="orthogonal")
        assert group.order == 3

    def test_whole_group_from_elements(self):
        n, gens, _ = GENERATOR_SETS["b5"]
        members = closure(n, gens)
        group = PermutationSet(n, members[::-1])
        assert group.order == 3840 and list(group.perms) == members
        # only a few members are kept as generators
        assert len(group.generators) <= 12


class TestSearchLimits:
    def test_order_known_before_members(self):
        # 16! members could never be listed; the order comes from the chain
        group = automorphisms(uncolored(16, complete_edges(16)))
        assert group.order == factorial(16)
        assert len(group.generators) < 16

    def test_limit_is_on_the_order(self, monkeypatch):
        group = automorphisms(uncolored(16, complete_edges(16)))
        monkeypatch.setattr(autgroup, "MAX_MEMBERS", factorial(16) - 1)
        with pytest.raises(LimitExceeded):  # raised from the order, before any member is built
            group.perms


@pytest.mark.parametrize("name,vertices,order", [
    ("24-cell", cell24(), 1152),
    ("24-cell-relabelled", cell24()[np.random.default_rng(5).permutation(24)], 1152),
    ("5-cross-polytope", cross_polytope(5).vertices, 3840),
])
def test_ladder_orders(name, vertices, order):
    poly = make_polytope(vertices.shape[1], vertices)
    art = build_artifacts(poly)
    lin = linear_group(art)
    orth = orthogonal_group(art)
    assert lin.order == orth.order == order
    # independent check: filter the uncolored edge-graph automorphisms by definition
    cands = automorphisms(uncolored(art.poly.n, art.poly.edges)).perms
    for flavor, group in (("linear", lin), ("orthogonal", orth)):
        assert set(group.perm_group) == set(brute_force_group(
            poly.phi, candidates=cands, flavor=flavor).perm_group)
        col = orbit_coloring(art.poly.n, art.poly.edges, group.perm_group)
        assert col.num_vertex_classes == 1 and col.num_edge_classes == 1


class TestLiftAndCheck:
    def test_batch_matches_per_member_lift(self, artifacts):
        # reference: the one-map-at-a-time lift and checks
        for name, art in artifacts.items():
            phi = art.poly.phi
            pinv = pseudo_inverse(phi)
            cands = automorphisms(uncolored(art.poly.n, art.poly.edges)).perms
            for flavor in ("linear", "orthogonal"):
                maps, ok, _ = frame(phi).check(cands, flavor)
                for perm, t, accepted in zip(cands, maps, ok):
                    assert np.array_equal(t, phi[:, list(perm)] @ pinv), name
                    expected = check_realizes(t, perm, phi, 1e-8) and (
                        flavor == "linear" or is_orthogonal(t, 1e-8))
                    assert accepted == expected, (name, perm)

    def test_vertex_at_origin_lifts_without_warnings(self):
        phi = np.array([[0.0, 1.0, 0.0, -1.0, 0.0], [0.0, 0.0, 1.0, 0.0, -1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, ok, _ = frame(phi).check([(0, 2, 3, 4, 1), (1, 0, 2, 3, 4)], "orthogonal")
        assert ok.tolist() == [True, False]
