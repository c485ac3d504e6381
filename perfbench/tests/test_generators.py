"""The generators are deterministic, and another seed gives a workload of the same shape."""

import random
from collections import Counter

import check
import resolve
import upgrade


def _resolve_inputs(seed, tmp_path):
    w = resolve.ResolveWorkload(seed, tmp_path / str(seed))
    w.setup(0)
    return w.metas, w.installed, [(c.repo, c.request, c.prefs) for c in w.cases]


def test_resolve_same_seed_same_inputs(tmp_path):
    assert _resolve_inputs(3, tmp_path / "a") == _resolve_inputs(3, tmp_path / "b")


def test_resolve_other_seed_same_shape_other_labels(tmp_path):
    metas_a, inst_a, cases_a = _resolve_inputs(3, tmp_path)
    metas_b, inst_b, cases_b = _resolve_inputs(4, tmp_path)
    assert metas_a != metas_b and cases_a != cases_b
    # relabelling and reordering only: the stanza and request counts match
    assert [m.count("Package:") for m in metas_a] == [m.count("Package:") for m in metas_b]
    assert [len(i) for i in inst_a] == [len(i) for i in inst_b]
    assert Counter(p for _r, _q, p in cases_a) == Counter(p for _r, _q, p in cases_b)
    assert Counter(r for r, _q, _p in cases_a) == Counter(r for r, _q, _p in cases_b)


def test_request_deck_keeps_exact_proportions():
    for seed in (1, 2):
        deck = resolve.request_deck(random.Random(seed), 40)
        kinds = Counter(k for k, _p in deck)
        assert kinds == {k: 2 * w for k, w in resolve.REQUEST_MIX}
        assert Counter(p for _k, p in deck) == {p: 20 for p in resolve.PREFS}


def test_check_repository_deterministic_and_same_size():
    a1 = check.make_repository(random.Random(5))
    a2 = check.make_repository(random.Random(5))
    b = check.make_repository(random.Random(6))
    assert a1 == a2
    assert a1.meta != b.meta
    assert a1.ids == b.ids == 2 * check.NAMES + 2 + 4 * 4
    assert len(a1.broken) == len(b.broken) == 16
    # clause counts come from a deck: only the last, partial block differs
    assert abs(a1.meta.count("Depends:") - b.meta.count("Depends:")) <= 3


def test_upgrade_repository_deterministic_and_same_shape():
    def build(seed):
        rng = random.Random(seed)
        repo = upgrade.make_repository(rng, 30)
        return repo, upgrade.make_cycles(rng, repo, 20, 8)

    (a1, c1), (a2, c2), (b, cb) = build(7), build(7), build(8)
    assert a1 == a2 and c1 == c2
    assert a1.meta != b.meta
    assert Counter(k for k, _c in a1.edits.values()) == Counter(k for k, _c in b.edits.values())
    assert sum(c.fails for c in c1) == sum(c.fails for c in cb) == 2
    assert all(len(c.names) == 8 and sum(n in a1.failing for n in c.names) == c.fails for c in c1)
