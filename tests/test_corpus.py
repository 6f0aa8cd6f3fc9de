"""Reruns the golden corpus (tests/golden/make_corpus.py) and compares it
with the stored digests.

On the platform the digests were made on (numpy version, BLAS build, BLAS
kernel and machine, tests/golden/corpus.json), every digest must match:
trace rows, screen events, final x and ax, ledger, snapshots, aborts,
reference and certificate JSON, and the residual columns. gradient_error is formed from fresh margins A x and is
compared at an absolute tolerance. On any other platform the
full-precision summary is compared at a relative tolerance instead, and
the test says so; it is never skipped.
"""

import json

import numpy as np
import pytest

from golden import make_corpus

# gradient_error moved by at most 1.4e-16 when the residuals began to form
# the gradient from fresh margins, on values up to 0.48
GRADIENT_ERROR_ATOL = 1e-14
# another BLAS build may round the products differently over 300 steps
SUMMARY_RTOL = 1e-6
SUMMARY_ATOL = 1e-9


@pytest.fixture(scope="module")
def corpus():
    with open(make_corpus.CORPUS_PATH, encoding="ascii") as fh:
        stored = json.load(fh)
    return stored, make_corpus.build()


def _compare_summaries(stored, fresh, name):
    assert stored.keys() == fresh.keys(), name
    for key, value in stored.items():
        if isinstance(value, (int, str)):
            assert fresh[key] == value, (name, key)
        else:
            np.testing.assert_allclose(
                fresh[key], value, rtol=SUMMARY_RTOL, atol=SUMMARY_ATOL, err_msg=f"{name} {key}"
            )


@pytest.mark.parametrize("by", ["digests", "summary"])
def test_the_corpus_reproduces(corpus, by):
    # "summary" forces the comparison another platform falls back to, so
    # it is exercised here too
    stored, fresh = corpus
    assert sorted(fresh) == sorted(stored["cases"])
    facts = make_corpus.platform_facts()
    if by == "digests" and facts != stored["platform"]:
        print(
            f"platform {facts} is not the corpus's {stored['platform']}: compared "
            f"the full-precision summary at rtol {SUMMARY_RTOL}, atol {SUMMARY_ATOL}"
        )
        by = "summary"
    for name, entry in stored["cases"].items():
        if by == "summary":
            _compare_summaries(entry["summary"], fresh[name]["summary"], name)
            continue
        assert fresh[name]["digests"] == entry["digests"], name
        if "gradient_error" in entry:
            np.testing.assert_allclose(
                fresh[name]["gradient_error"], entry["gradient_error"],
                rtol=0.0, atol=GRADIENT_ERROR_ATOL, err_msg=name,
            )
