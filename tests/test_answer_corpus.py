"""Every answer on the seeded corpus matches the one recorded in answer_corpus.json.

An answer change fails test_answers_match_the_corpus. A change in the
transitions an answer costs fails test_costs_match_the_corpus; such a change
is re-recorded with `PYTHONPATH=src python tests/answer_corpus.py ID ...`
and its before/after counts go into CHANGES.md.
"""

import json

import pytest

import answer_corpus


@pytest.fixture(scope="module")
def corpus():
    recorded = json.loads(answer_corpus.CORPUS.read_text())
    return recorded, answer_corpus.compute()


def test_the_corpus_covers_every_sample(corpus):
    recorded, computed = corpus
    assert set(recorded["answers"]) == set(recorded["used"]) == set(computed)


def test_answers_match_the_corpus(corpus):
    recorded, computed = corpus
    changed = [k for k, (answer, _) in computed.items() if recorded["answers"].get(k) != answer]
    assert not changed, "%d answers changed: %s" % (len(changed), ", ".join(changed[:20]))


def test_costs_match_the_corpus(corpus):
    recorded, computed = corpus
    changed = ["%s %s -> %s" % (k, recorded["used"].get(k), used)
               for k, (_, used) in computed.items() if recorded["used"].get(k) != used]
    assert not changed, "%d costs changed: %s" % (len(changed), "; ".join(changed[:20]))
