"""Golden outputs of the scheme pipeline.

The digests below were recorded before the scheme core was merged (one
ball routine, one derived entry view, one witness-upgrade routine); the
refactor must reproduce every byte.  They cover the scheme document, the
certifier report and the coloring, as the CLI prints them, on corpus
instances of both branches, including multi-step builds, and the output
entries of the two label-upgrade fixtures, which are the only inputs that
reach the E2 witness path.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from defcolor.scheme import (
    build_scheme,
    certify_scheme,
    color_from_scheme,
    find_homogeneous,
    scheme_from_json,
    scheme_to_json,
    step,
)
from defcolor.scheme.corpus import caterpillar, star_of_balls
from defcolor.scheme.params import SchemeParams
from defcolor.scheme.serialize import entry_to_json
from test_steps import paired_ball_fabric, typed_spine_fabric


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


INSTANCES = {
    # deletion branch
    "star_w1_m6_p2": lambda: star_of_balls(1, 6, 2),
    "star_w2_m7_p2": lambda: star_of_balls(2, 7, 2),
    "star_w2_m33_p3": lambda: star_of_balls(2, 33, 3),
    # contraction branch: one, two and three steps
    "caterpillar_w1_s14": lambda: caterpillar(1, 14),
    "caterpillar_w2_s14": lambda: caterpillar(2, 14),
    "caterpillar_w1_s16": lambda: caterpillar(1, 16),
    "caterpillar_w1_s20": lambda: caterpillar(1, 20),
}


def mutants(doc: list) -> list[list]:
    """Dirty copies of a scheme document: entry 1 with its arcs reversed,
    entry 1 without its last edge, and the last entry with one more model
    id."""
    out = []
    for edit in (
        lambda d: d[1].update(arcs=[[b, a] for a, b in d[1]["arcs"]]),
        lambda d: d[1]["graph"]["edges"].pop(),
        lambda d: d[-1]["model"]["0"].append(len(doc[0]["model"]) - 1),
    ):
        m = json.loads(json.dumps(doc))
        edit(m)
        out.append(m)
    return out


# name -> (steps, scheme_to_json, certify report, coloring, mutant reports)
GOLDEN = {
    "caterpillar_w1_s14": (
        1,
        "0a37bb679ad022d88eb33d1e5103897ba5eb45453642f635d88f38ab61707add",
        "47edab3bb05aff4f703d6425f2fc05b310161cb781e54951c09726d1502fa633",
        "805dfb6e0e9ec840f6d22b61882fd5aa1c3cca60a22959b6776a2aafcb31cebe",
        "b560dde163088bfe7d11161dd4e6378e537eb2b1498f26d900d8b594b55e7df5",
    ),
    "caterpillar_w1_s16": (
        2,
        "ee644bf582f8069e9acc57c4e2b56e8dbcaf02ea227727573f1644aa7169ad5f",
        "a5fb3b07198a350f38fcad20235b5107c5b3e22140a9a8a4a0f38d9ad814789b",
        "167f4d72a1e4c9c1ac5ccd84d0cd7319138490edbe8883b2a25a9e520f77c844",
        "e3d34f00823883659766e4153ebfcd8f3464a1f5080d2d2aed727669da71a5e7",
    ),
    "caterpillar_w1_s20": (
        3,
        "92b0e2d1b5bc6bfc3f2a571c482505d8ce2b7014f8a2e723273871679437b9f5",
        "b7c8dfd25387805d9e20b2d98bd1d00d2a113031284d7347b01307fa98a28b6d",
        "a77a6aecb42ff8fa768865017c71d70e4a0bd8c1600cf51167db6cb4b4080124",
        "3eca6e83832e32eddee1f8e6203c7f0f7f99df9e34db7aa6709badcb7b618ef8",
    ),
    "caterpillar_w2_s14": (
        1,
        "26762fbd359cd62dfce639ee9fb3ba6a7ab511e0019e282fc6a787eb08119f80",
        "47edab3bb05aff4f703d6425f2fc05b310161cb781e54951c09726d1502fa633",
        "13d0c6cf51bda23c8b453c35560179911237e96a6d687f081fa43d2d03937af2",
        "ff01daf61a59044038ba0439e7ce252834c2c2d8acc99cff2c73767c6c4eb00b",
    ),
    "star_w1_m6_p2": (
        1,
        "6e31a5af2a8d6fb67b482d31e11daf8d6abfe3735f02823059c3da3d957b3e98",
        "47edab3bb05aff4f703d6425f2fc05b310161cb781e54951c09726d1502fa633",
        "aaed572cb4085def1afd737abf270ecd4e2952b3b226e785609298091c3d857f",
        "0c370229956355850b56f70c3d047c5f1182ea912eb0e00e91ab99f9bb89e1c2",
    ),
    "star_w2_m33_p3": (
        1,
        "27277d45770091907017b69042c313bcf4a459f0eb48906c00293dbff7b90ec6",
        "47edab3bb05aff4f703d6425f2fc05b310161cb781e54951c09726d1502fa633",
        "8d51a81325b25ab35958d9fdbebbf304f76b43558429455a21d67037edc92995",
        "7c26477de77cf32a88411cde658b815b44a886d9acdbdd5df2cd72c445175a64",
    ),
    "star_w2_m7_p2": (
        1,
        "4babb0b23e4ac990067824e6832b7b53358100c294b019508d4a7f79814c3203",
        "47edab3bb05aff4f703d6425f2fc05b310161cb781e54951c09726d1502fa633",
        "47de668a54ed090612f600be323961d2d7baa91feb25af83f671e9f812e5f106",
        "faab3804d23524def0b8b0299731c0e642315d49d3aa1e9a4f3d24c1aad1d98c",
    ),
}

FIXTURES = {
    "del": "7a9a88b05a9702eec41b9b15a9f3f90fd8436e1837da372b503e78e5db952df0",
    "contract": "2516785b7fa2eaa07410aeb8e3fdeecf2d28cd527a02d7cfdaab03ca468cd3d7",
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_pipeline_outputs(name):
    inst = INSTANCES[name]()
    scheme = build_scheme(inst.graph, inst.params)
    report = certify_scheme(scheme, inst.params, inst.graph)
    coloring = color_from_scheme(scheme, inst.params, inst.graph)
    text = scheme_to_json(scheme)
    dirty = [
        certify_scheme(scheme_from_json(json.dumps(m)), inst.params, inst.graph)
        for m in mutants(json.loads(text))
    ]
    assert not any(r.clean() for r in dirty)
    got = (
        len(scheme) - 1,
        sha(text),
        sha(json.dumps(report.to_json())),
        sha(json.dumps({"k": coloring.k, "colors": list(coloring.colors)})),
        sha("".join(json.dumps(r.to_json()) for r in dirty)),
    )
    assert got == GOLDEN[name]


def _del_fixture():
    _, entry, _ = paired_ball_fabric(pairs=6, h=4, k=1)
    params = SchemeParams(h=4, k=1, r=3, d=3, n_freeze=10, l0=2, t=5)
    triple = find_homogeneous(entry.graph, 5, 2, 3, 3)
    return step(entry, triple, params)


def _contract_fixture():
    _, entry, params = typed_spine_fabric()
    triple = find_homogeneous(entry.graph, 1, params.l0, 4, 3)
    return step(entry, triple, params)


@pytest.mark.parametrize(
    "name, make", [("del", _del_fixture), ("contract", _contract_fixture)]
)
def test_label_upgrade_entries(name, make):
    out = make()
    assert max(e.label for e in out.hyperedges) == 2
    assert sha(json.dumps(entry_to_json(out))) == FIXTURES[name]
