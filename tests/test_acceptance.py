"""Acceptance suite: one test per criterion, each at its stated budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines, or `grushko verify-all` for the JSON report.
"""

import hashlib
import json

import pytest

from grushko.verify import CRITERIA, RunConfig, run_criterion

CONFIG = RunConfig()

# sha256 of json.dumps(details, sort_keys=True) per criterion at CONFIG; the
# details carry no seconds, and c05's carry the class strings.
DETAILS_DIGESTS = {
    1: "dfaf4b9b4758913e26f2a4b6a1124970ddf046ede324c59bddbaab6d9045c27f",
    2: "8913c4bd5652c06c4459489fde70ba4cf77aa79b93721f3fe2b71c0584b488bf",
    3: "2ac69443b25f4d4ed9f6abcd441452e25b16d092d6f64b09c68a1fae3b1a0c23",
    4: "dc5e7b964326304dd400a038fd0baebc6d1a592445bf02dca5f38abb491f4d6c",
    5: "36d79601817eab7f869a0eac1804a4a38ec431351b893ebd13965344847b2791",
    6: "f99ae1ffb3eff5ba241770ec8e9d864137d02001781c68e3ab7864e5c6c74fc3",
    7: "e1c78751a5e101d784a34bf2eae886078fd637ef7cbf84590dc35cecf351da8b",
    8: "7cd96374ea7ed0257b5744af774626edbb1333e14d41616af494c6e23446e319",
    9: "6f94a9f1346b8eb9241eb7959a4bd1b7a67880ebab51da0837acf98f245db3b8",
    10: "e2ed6150f60a080dcc1226717edb9207ee21ccb3431c058e76a99d36f44968c8",
}


@pytest.mark.parametrize("cid,name", [(c[0], c[1]) for c in CRITERIA],
                         ids=[f"c{c[0]:02d}-{c[1].replace(' ', '-')}" for c in CRITERIA])
def test_criterion(cid, name):
    result = run_criterion(cid, CONFIG)
    print(result.line())
    assert result.status == "pass", result.details
    assert result.seconds <= result.budget
    details = json.dumps(result.details, sort_keys=True).encode()
    assert hashlib.sha256(details).hexdigest() == DETAILS_DIGESTS[cid]


# the same digest at radius 2 for c04, the one criterion that reads the radius
RADIUS_2_DIGESTS = {
    4: "1a71e08431da4b7e97d0837e783252d4e360ab86a681f208e9aeedf7e4ba0860",
}


@pytest.mark.parametrize("cid", sorted(RADIUS_2_DIGESTS))
def test_criterion_at_radius_2(cid):
    result = run_criterion(cid, RunConfig(radius=2))
    assert result.status == "pass", result.details
    details = json.dumps(result.details, sort_keys=True).encode()
    assert hashlib.sha256(details).hexdigest() == RADIUS_2_DIGESTS[cid]
