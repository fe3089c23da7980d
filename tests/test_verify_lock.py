"""Behaviour lock for the verifier: report digests and depth scaling.

The digests are sha256 sums of `Report.to_dict()` without `runtime_seconds`,
recorded with the letter-tuple words that syllable words replaced.
"""

import hashlib
import json
import math
import time

import pytest

import gtrees.counterexample as cx
import gtrees.stallings as st
from gtrees.counterexample import default_data, documented_mutations, verify_all
from gtrees.errors import InputError
from gtrees.words import substitute

GOLDEN_DEFAULT_N14 = "fbeb96f8e2fc65069797c6a64a84e321549e87599cc067a482b20cc79dedb4b7"
GOLDEN_MUTANTS_N10 = {
    "relator-x-image": "772dee977df848c821865e5856ef1bc2be4e11380f01870db337389380552363",
    "relator-y-image": "30cd0256f942b58b011d4a57b34f89ea6531a57ef03be7a73428de127bdec28a",
    "relator-base-rhs": "465a37ef0edbf78c6c92d8edd2f7afcfdc37b27fe651505c204461b222a6f144",
    "subgroup-ge-generator": "5e41f6ad82bc6a02b65900621ffe2797d446155071c992876b06a5850304c6d9",
    "subgroup-gw-generator": "6bf3008b66b0604ce172859e414dbe2382cbef655bb1adde3487c081dd9ff917",
    "incidence-tau-f": "7ac1b5c3fb9320929751838e8163ed3f78390af91604fc19ba13e60b26b0bb56",
}


def report_digest(report) -> str:
    doc = report.to_dict()
    del doc["runtime_seconds"]
    return hashlib.sha256(json.dumps(doc, sort_keys=True, default=str).encode()).hexdigest()


def test_default_report_matches_golden_digest():
    assert report_digest(verify_all(default_data(), n_max=14)) == GOLDEN_DEFAULT_N14


@pytest.mark.parametrize("name", sorted(GOLDEN_MUTANTS_N10))
def test_mutant_reports_match_golden_digest(name):
    mutant = documented_mutations()[name]
    assert report_digest(verify_all(mutant, n_max=10)) == GOLDEN_MUTANTS_N10[name]


def test_depth_64_passes_within_a_second_and_mutants_fail():
    t0 = time.perf_counter()
    report = verify_all(n_max=64)
    elapsed = time.perf_counter() - t0
    assert report.passed, report.to_text()
    assert elapsed < 1.0
    for name, mutant in documented_mutations().items():
        assert not verify_all(mutant, n_max=64).passed, name


@pytest.mark.parametrize("n_max", [-1, cx.N_MAX_CAP + 1])
def test_depth_outside_the_range_is_refused_before_any_work(n_max, monkeypatch):
    def no_fold(*args, **kwargs):
        raise AssertionError("folded before checking n_max")

    monkeypatch.setattr(cx, "from_generators", no_fold)
    with pytest.raises(InputError):
        verify_all(n_max=n_max)


def test_each_generator_tuple_is_folded_once_per_run(monkeypatch):
    folded = []
    phis = []
    real_fold, real_phi = st.from_generators, cx.derive_phi

    def counting_fold(gens, alphabet=None):
        folded.append((tuple(gens), alphabet))
        return real_fold(gens, alphabet=alphabet)

    def counting_phi(data, **kwargs):
        phis.append(data)
        return real_phi(data, **kwargs)

    monkeypatch.setattr(cx, "from_generators", counting_fold)
    monkeypatch.setattr(cx, "derive_phi", counting_phi)
    assert verify_all(n_max=12).passed
    assert len(folded) == len(set(folded))
    assert len(phis) == 1
    for mutant in documented_mutations().values():
        folded.clear()
        phis.clear()
        verify_all(mutant, n_max=6)
        assert len(folded) == len(set(folded)) and len(phis) == 1


def log_log_slope(xs, ys) -> float:
    """Least-squares slope of log y against log x."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def test_substitutions_grow_linearly_with_the_depth(monkeypatch):
    # work contract: a run keeps phi's iterates, their embeddings and each
    # rewrite, so depth n costs one substitution past the deepest iterate and
    # the count grows linearly in n_max; applying phi from scratch at every
    # depth makes it grow as n_max^2 (slope 1.9 over these depths)
    calls = [0]

    def counted(w, images):
        calls[0] += 1
        return substitute(w, images)

    monkeypatch.setattr(cx, "substitute", counted)
    depths, counts = (16, 32, 64, 128), []
    for n_max in depths:
        calls[0] = 0
        assert verify_all(n_max=n_max).passed
        counts.append(calls[0])
    assert log_log_slope(depths, counts) <= 1.1, counts
    # each further depth costs two: one application of phi and one embedding
    # (phi^n(start) is the auxiliary power word, so both sides of the
    # identity share it)
    assert [b - a for a, b in zip(counts, counts[1:])] == [2 * (m - n) for n, m in zip(depths, depths[1:])], counts
