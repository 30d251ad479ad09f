"""The sign and summand conventions, pinned bit for bit.

Each construction below is serialized through document_of, which writes
every term, differential and component matrix, and compared by sha256 with
a digest recorded once.  A change to the order of summands, a sign, or a
basis choice anywhere in cone, fib, the homotopy (co)limits, factor or the
Postnikov tower changes a digest.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from tests.strategies import random_rep_map
from torsionlab.complexes import (
    ChainMap,
    chain_map_basis,
    cone,
    fib,
    hom_complex,
    homotopic,
    homotopy_pullback,
    homotopy_pushout,
    random_chain_map,
    random_complex,
)
from torsionlab.document import document_of, serialize_document
from torsionlab.factorization import TorsionTheory, factor
from torsionlab.linalg import PrimeField
from torsionlab.postnikov import postnikov_tower
from torsionlab.quiver import Quiver
from torsionlab.tstruct import (
    HeartMorphism,
    TStructure,
    heart_comparison,
    random_heart_object,
)

A2 = Quiver.a2()


def _constructions(p: int, seed: int) -> dict[str, str]:
    fld = PrimeField(p)
    rng = np.random.default_rng([p, seed])

    def draw():
        return random_complex(A2, fld, rng, max_dim=3, lo=-2, hi=2)

    x, y, z, w = draw(), draw(), draw(), draw()
    f = random_chain_map(x, z, rng)
    g = random_chain_map(y, z, rng)
    h = random_chain_map(w, x, rng)
    k = random_chain_map(w, y, rng)
    c, fb = cone(f), fib(f)
    pb, po = homotopy_pullback(f, g), homotopy_pushout(h, k)
    fac = factor(f, TorsionTheory.at(seed % 3 - 1))
    tower = postnikov_tower(f)
    maps = {
        "cone": {"into": c.into, "outof": c.outof},
        "fib": {"to_source": fb.to_source},
        "pullback": {"first": pb.proj_first, "second": pb.proj_second},
        "pushout": {"first": po.inj_first, "second": po.inj_second},
        "factor": {"e": fac.e, "m": fac.m},
        "postnikov": {f"stage{i}": s.map for i, s in enumerate(tower.stages)},
    }
    return {
        name: serialize_document(document_of(A2, fld, maps=named))
        for name, named in maps.items()
    }


DIGESTS = {
    (2, 0): {
        "cone": "404eb2f3cc8f858d19ef78bbcdc649f948e0be7c8cd212d4dec35129a621096b",
        "fib": "0a9b4039e977282d6011e1a25af16935bae1d158d1cf2ec401024f12aa0f84fa",
        "pullback": "4a0b55c76abc9e6db9effc83dfa3d359893d3826efffd0a4be49c86f8cb8db88",
        "pushout": "e317e7334c84a2b6ead883d1c41723e633b3137bff2f7c2a1d92303c9a0c70d6",
        "factor": "ed2a279612284e6a21152c58f2600a7322cf391e9de28349fec04acd1664ecd8",
        "postnikov": "fecd8e1b38998b7d778ce49080feedd63894497492c1c82484129dc640c8d4a6",
    },
    (2, 1): {
        "cone": "b55b3d354872a62e93218d5dc3739a542468d9163a40ff3596f22339b6cb0e2d",
        "fib": "ed3af90f4f22da628cb2c203a5e9538cf0087a298d161dda5bbb7d7012e587b7",
        "pullback": "fbb44dbb0f1257ce02f5513dc2b7e7b160bca4978fc4ab683d47ba77f6e68694",
        "pushout": "a8f9952d10d5e45d9c01e60f0422961bf84d8fd64c058a0737f5c7630510e655",
        "factor": "91dca4b5b87f51b33d49b40299fc210e687a74f68f079a561a4659aef0f14966",
        "postnikov": "3632a6f1d7c4090ff3a6aa909bb173d1df74f6330fa4038a3f6c4fdbf94a80cb",
    },
    (2, 2): {
        "cone": "160cb2e8ad509d98bfcae0401cd5b1305980a4760323ce4d2e754c11e78a5ebd",
        "fib": "d1caa8d6832a85e91b2c68d187767addc22c1d26ffd7d05c38ae3bfad53a3908",
        "pullback": "93b47298c1a326a2e5a6c6010e69f2200900ef739e67c12a730fc25e9cdff5dc",
        "pushout": "a68ac5d2958c30dfe0ed0c3b632b5f7d02f0b53772ec61f9086581066e747017",
        "factor": "c63cf1c0a967922700ffe6f21819d1a6c0af83d75d4cf376f5e11df7d0b4debe",
        "postnikov": "014fad3fb3a2dd665e7e8f3b3caf4ff17a259edc231929a53789476e11343e6d",
    },
    (3, 0): {
        "cone": "c0b339cdf1981b2050e4494902022340730f7ef94fad45fe7f0a49b350bd2c78",
        "fib": "f6ddc2afae8106d85005d0174791470ac2440be4b00a5a5ed7501383adf1d9f1",
        "pullback": "7476e67a71a25f8ef5510667af24a88bf2d7000cc7ca175205b75969c78ecd58",
        "pushout": "8c1fb93a3c7a9cf214cbadea944404d0a51274f484a9db1596b741c8297928a3",
        "factor": "dabaa33217a96e6f9907f64af3e2efa8d3336b664869e1928ac06493be846724",
        "postnikov": "5b6a55fa08b355e9b773eeba91729e33ef11711e1db15a61b6488672202fd569",
    },
    (3, 1): {
        "cone": "5823be75631b67c3e29da86b22bcead9def515b467c0eeb544d847d49e5d7e5d",
        "fib": "d9d0be742528d8eb42f47c774ace1061809a8b89a1e1ccde19b610db260063a7",
        "pullback": "06e167d38110433222adb65dd36a3f281f09829f03405fd9ba499b0726574062",
        "pushout": "d6d657bdde9a9254ce209137376c10b1c078b505a75ca070887f85d536f41d0c",
        "factor": "7bca1df52bab7252fd34b15b3e5dae752cf49db5df2f685d12986919e192c483",
        "postnikov": "6052b7d5d71413cfac5aea465dee05734f813cf731ce3a2137fb1f279965fce1",
    },
    (3, 2): {
        "cone": "f54bb45bf114262874ce66549080d65ffb55cd919a8c44c54c8d4cc4d5afa120",
        "fib": "422ffdd036e7c937e083c79e243c74a572a296ae2c9937817cd33639a18c8e71",
        "pullback": "1641cec0ad4ca5bcbd6794a4c74c2399f950b2cb0433fa8c143f8a05406b602f",
        "pushout": "3b679a1a16eab0c99678f07870130607dd62192d9a1c674769fb745e4b0d863f",
        "factor": "9371bffe21d6c5255b86c5b374c262d6fe282c5158072add265d441b6331ac38",
        "postnikov": "b6ba17a381f9e590a9a7ff57af8dc62f13d86b75cce0b0bcba64a5facd2d63ea",
    },
}


@pytest.mark.parametrize("p, seed", sorted(DIGESTS))
def test_constructions_match_recorded_digests(p, seed):
    got = {
        name: hashlib.sha256(text.encode("utf-8")).hexdigest()
        for name, text in _constructions(p, seed).items()
    }
    assert got == DIGESTS[(p, seed)]


# -- mapping complexes and the solvers built on them ---------------------------


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _matrices_digest(mats) -> str:
    """sha256 over the shapes and entries of labelled matrices, in order."""
    return _sha(json.dumps([[label, list(m.shape), m.tolist()] for label, m in mats]))


def _graded_mats(label: str, comps: dict) -> list:
    return [(f"{label}{n}.{v}", c) for n in sorted(comps) for v, c in enumerate(comps[n].components)]


def _null_homotopic(x, y, rng) -> dict:
    """Components of d h + h d for a random graded h : X -> Y[1]."""
    h = {
        n: random_rep_map(x.term(n), y.term(n + 1), rng)
        for n in x.support
        if not y.term(n + 1).is_zero()
    }
    out = {}
    for n in set(x.support) & set(y.support):
        parts = [y.diff(n + 1).compose(h[n])] if n in h else []
        if n - 1 in h:
            parts.append(h[n - 1].compose(x.diff(n)))
        if parts:
            out[n] = sum(parts[1:], parts[0])
    return out


def _moved(f: ChainMap, comps: dict) -> ChainMap:
    """f plus the graded map comps, checked as a chain map."""
    degs = set(f.comps) | set(comps)
    return ChainMap(
        f.source,
        f.target,
        {n: comps[n] + f.comp(n) if n in comps else f.comp(n) for n in degs},
    )


def _three_terms(fld, rng):
    """The first seeded draw supported on all of degrees -1, 0, 1."""
    while True:
        x = random_complex(A2, fld, rng, max_dim=3, lo=-1, hi=1)
        if len(x.support) == 3:
            return x


def _heart_morphism(fld, t, rng) -> HeartMorphism:
    """The first seeded nonzero map between nonzero heart objects, moved by
    a null-homotopic map so that the comparison needs a homotopy."""
    while True:
        a, b = random_heart_object(A2, fld, t, rng), random_heart_object(A2, fld, t, rng)
        if a.is_zero() or b.is_zero():
            continue
        f = random_chain_map(a, b, rng)
        if not f.is_zero():
            return HeartMorphism(_moved(f, _null_homotopic(a, b, rng)), t)


def _solver_outputs(p: int, seed: int) -> dict[str, str]:
    """Digests of the hom_complex differentials, chain_map_basis, a
    homotopic witness and heart_comparison's u and witness on seeded a2
    data."""
    fld = PrimeField(p)
    rng = np.random.default_rng([p, seed, 7])
    x, y = _three_terms(fld, rng), _three_terms(fld, rng)
    hom = hom_complex(x, y).complex
    basis = chain_map_basis(x, y)
    f = random_chain_map(x, y, rng)
    wit = homotopic(f, _moved(f, _null_homotopic(x, y, rng)))
    hf = _heart_morphism(fld, TStructure(seed % 3 - 1), rng)
    u, hwit = heart_comparison(hf)
    return {
        "hom_complex": _matrices_digest(
            (f"d{n}", d.components[0]) for n, d in enumerate(hom.diffs)
        ),
        "chain_map_basis": _sha(
            serialize_document(
                document_of(A2, fld, maps={f"b{j}": b for j, b in enumerate(basis)})
            )
        ),
        "homotopic": _matrices_digest(_graded_mats("h", wit.comps)),
        "heart_u": _sha(serialize_document(document_of(A2, fld, maps={"u": u}))),
        "heart_witness": _matrices_digest(
            _graded_mats("h", hwit.comps) + _graded_mats("to", hwit.to_map.comps)
        ),
    }


SOLVER_DIGESTS = {
    (2, 0): {
        "hom_complex": "9d6cea4b924a81ba38673f077da5078fc8c325f53c075dd204a35ece6246f420",
        "chain_map_basis": "6d6531776edd80d55579aebc75b8ccf956affb5991c8ad2f5ba633031fb604f5",
        "homotopic": "5cc7c39e7b20e9227297a2fd5d290897c3457624ffc77af64b82fd9fdf0f4756",
        "heart_u": "c75f1e0a8b9c95c11297df55b2f86c8ceeebab62cc14905777e0a289d34114b6",
        "heart_witness": "dca22822f6ab58dc64e9630ac80935045c5fcf06432c58ba86b1c5ba4932b220",
    },
    (2, 1): {
        "hom_complex": "188d1d48540c0abc0d5733869ab2b360c4f2a0f332fc5159fd72f3ab2c005741",
        "chain_map_basis": "194e241e8c3e98b23e6a64f76a3a66bdead88cf33f77c73a4a498762b76730e7",
        "homotopic": "605e894b0263eb3601d8048895413196bd57cea1a1937cda8e29db4ea667c64a",
        "heart_u": "9a3915ad30b926efffb7c15c4755975d16e0b80c388f4c1dcee40d73a3048d28",
        "heart_witness": "677e69a97f710e631f22abc5f9d5ae3de5ab3ed9dfa5572607c7d4aafd3c5c62",
    },
    (3, 0): {
        "hom_complex": "9680164a4c5ed4ade7bf55628906f576d8a5fb87c7cd4e68c5ceace199a49c8a",
        "chain_map_basis": "650ae6aa4992207b467b242b223b62aae76a3653ee27b1242c7f147b0892fe43",
        "homotopic": "93862c0b5fd01bf3ad6ef5e926212a9a7af9e212608e9f492f764bb676f0bfb3",
        "heart_u": "143f48e1f8f3a86254163f9360e1f09a5e0dc927db474b891d19e898b9b28a7a",
        "heart_witness": "0cbbf09dffbfc7c5f807f59502e3b1d27dbaf2e0144a74c9a3094ab72db17a36",
    },
    (3, 1): {
        "hom_complex": "142f9552a94940b74cf6d2dfac72b999b98aa85d56baf314da9384bb1be80fc2",
        "chain_map_basis": "70d686611f54c1f91860c717e1c3f445c19f3d1d90e6f231c1da6f9c7aece513",
        "homotopic": "9b967d31cdd9db52878343d18c8ca8541690f50404a7b812cc76f70de391f681",
        "heart_u": "99a7ac8d52d9fe082dbd84188dd0d8bc39ddab93f8dea89bc79c2290fac235e7",
        "heart_witness": "a9b99a9964e8a30384d063013ff58e6aee7127843c529ad2cca2524384216240",
    },
}


@pytest.mark.parametrize("p, seed", sorted(SOLVER_DIGESTS))
def test_mapping_complex_solvers_match_recorded_digests(p, seed):
    assert _solver_outputs(p, seed) == SOLVER_DIGESTS[(p, seed)]
