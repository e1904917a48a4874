"""Golden output: digests of reports and rendered elements must not move.

The digests were computed before the element layer was collapsed to one
linear-combination type; any refactor of the structure maps has to
reproduce them byte for byte.  Regenerate a table only for a change that is
meant to alter output, and say so where the change is recorded.
"""

import hashlib
import json

import pytest

from grhopf import (
    MONOID_IDS,
    MORPHISMS,
    SUITES,
    Element,
    antipode,
    check_bimonoid,
    check_commutativity,
    check_morphism,
    coproduct_component,
    corpus,
    get_monoid,
    ordered_bipartitions,
    run_suite,
    sampled_graphs,
)
from grhopf.verify import KEY_CAP_5

GOLDEN_SUITES = {
    "bimonoid": "3f204960b95bfd543532fdc89e0e06fae9db4dbcbd0e19dc95caabe101d25a28",
    "antipode": "9602ce2d12edabf22d426f7a62dccd086a162faea0c4e056908bc76f814b5759",
    "commutativity": "b62604e8f541fa7c48ee82b0fa80c6b100b06997d7f003920933b1378e02c634",
    "morphisms": "96a4563f6db41a56a6148da066fc90a5238231d72bb2aeb653c40ab650cc98e5",
    "functors": "f8e6212e4f0e8259cfb319cc807c245d6513000398830266d387e867326a7f35",
    "stanley": "dd923155c9168771d95c5688a2a86f2c4952febdedc389ba929d0b72d06550e1",
    "basis-change": "b0267ba1bbe714eb11e58f5a9109c707780a319eb6bcfb4d30af6f7483a39bc0",
}

GOLDEN_ELEMENTS = {
    "L": "32a8b808e390e4a8ecb1d1e07910f2346dadf5903b296387653fd9995a1987a0",
    "AO": "d7814dc39c28a9314086cedfd42c09336cf5d6ffd81f6c6f4008fdffe0d523dc",
    "Sigma": "13df20ddcfc11c6fb0a5d43b3b4528280756daa886a77853709d254665a4a2d6",
    "SSigma": "e0bf006758eae4eb92351af4e2befe76c77a1dfb0c3de3ca5ff0919a23514a09",
    "Pi_m": "4a260ffbaeaf5bcc8262c9af7521f7b0cdeba89d2c746927f5c26bdf2e369085",
    "Pi_p": "b211df651f0767dc2a9dea22ba6200ac324f8d2c97f17b4acc1fc2eff713b682",
    "SPi_m": "440cf78f74fd6e0dc70088ce67fb861b3e58dac1d9bc746fc30d5be9626a6a4f",
    "SPi_p": "b65f407533418cc63370fa398122c0e16cfd51b9e8404f56ef2f2d3f7d5635ef",
    "FL_M": "39c878cc29c787caf10976b407a3dd8857ec724263f702e40cb932dbf535738f",
    "FL_P": "0e5cf6d99b07083c514e16dab7536751c3c25131c437f7de0583b25db2fb2550",
    "Match_M": "5d6d72ae92dcf70c309fce59abc8eceacf0aaaa1a2978a56a0a8676236e9347f",
    "Match_P": "1514fd21ac75595c2cc1a1be28511db115c18a743760c99b5c31feba830a49c7",
    "E": "169c68de6fa6ef0e5f774c1dc2640f632da8026ff5be1c7a8f655ac5a088ede8",
}

# the bimonoid, commutativity and morphism results on the first three graphs
# of the nmax-5 sample, with the nmax-5 key cap: products and coproduct
# factors of capped basis keys fall outside the capped basis
GOLDEN_CAPPED = "e62dd27fc1894d03c959fbb724199c8449014f7e85580bd93113a1b170e91cf1"

GENERAL_METHODS = ("takeuchi", "milnor-moore-left", "milnor-moore-right")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def suite_digest(suite: str) -> str:
    records = run_suite(suite, 3).to_json()["records"]
    return _sha(json.dumps(records, sort_keys=True))


def element_digest(mid: str) -> str:
    """Antipodes by every general method and coproducts at every split, for
    every basis key of `mid` on every graph of corpus(3)."""
    lines = []
    for g in corpus(3):
        bips = ordered_bipartitions(g.vertices)
        for key in get_monoid(mid).basis(g):
            head = f"{g!r} {key.literal()}"
            for method in GENERAL_METHODS:
                lines.append(f"{head} {method}: {antipode(mid, g, key, method)}")
            x = Element.of(mid, g, key)
            for s, t in bips:
                split = f"{','.join(sorted(s))}|{','.join(sorted(t))}"
                lines.append(f"{head} {split}: {coproduct_component(mid, g, s, t, x)}")
    return _sha("\n".join(lines))


def capped_digest() -> str:
    rows = []
    for g in sampled_graphs(5, 16, 0)[:3]:
        for mid in MONOID_IDS:
            rows.append(check_bimonoid(mid, g, KEY_CAP_5).to_json())
            rows.append([mid, check_commutativity(mid, g, KEY_CAP_5)])
        for name in MORPHISMS:
            rows.append(check_morphism(name, g, KEY_CAP_5).to_json())
    return _sha(json.dumps(rows, sort_keys=True))


@pytest.mark.parametrize("suite", [s for s in SUITES if s != "all"])
def test_suite_records_unchanged(suite):
    assert suite_digest(suite) == GOLDEN_SUITES[suite]


def test_capped_records_unchanged():
    assert capped_digest() == GOLDEN_CAPPED


@pytest.mark.parametrize("mid", MONOID_IDS)
def test_element_output_unchanged(mid):
    assert element_digest(mid) == GOLDEN_ELEMENTS[mid]


if __name__ == "__main__":
    # print the digest tables, for regenerating them after an intended change
    print("GOLDEN_SUITES =", json.dumps(
        {s: suite_digest(s) for s in SUITES if s != "all"}, indent=4))
    print("GOLDEN_ELEMENTS =", json.dumps(
        {m: element_digest(m) for m in MONOID_IDS}, indent=4))
    print("GOLDEN_CAPPED =", json.dumps(capped_digest()))
