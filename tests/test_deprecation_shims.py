"""Regression tests: every deprecation shim blames the *caller*.

A DeprecationWarning attributed to the shim's own frame is useless —
the developer who must migrate filters warnings by their own files and
never sees it. Each test below triggers one shim and asserts the
recorded warning's ``filename`` is this test file, i.e. the
``stacklevel`` hops over every wrapper frame. The static companion is
lint rule RPL402 (missing or too-small stacklevel in new shims).
"""

import warnings

import numpy as np
import pytest

from repro.protocols.joint import RRJoint


def _sole_deprecation(record):
    """The single DeprecationWarning in ``record``, asserted unique."""
    found = [
        entry
        for entry in record
        if issubclass(entry.category, DeprecationWarning)
    ]
    assert len(found) == 1, [str(entry.message) for entry in record]
    return found[0]


def _assert_blames_caller(record):
    warning = _sole_deprecation(record)
    assert warning.filename == __file__, (
        f"shim warning attributed to {warning.filename}; the caller "
        "never sees it (wrong stacklevel)"
    )
    return warning


@pytest.fixture
def joint(small_schema):
    return RRJoint(small_schema, names=["flag", "level"], p=0.6)


class TestJointShims:
    def test_matrix_property_blames_caller(self, joint):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            matrix = joint.matrix
        warning = _assert_blames_caller(record)
        assert "RRJoint.matrices" in str(warning.message)
        assert matrix is joint.matrices[joint.cluster_name]

    def test_engine_task_blames_caller(self, joint):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            task = joint.engine_task()
        warning = _assert_blames_caller(record)
        assert "RRJoint.engine_tasks" in str(warning.message)
        assert task.positions == joint.engine_tasks()[0].positions

    def test_legacy_estimate_set_frequency_blames_caller(
        self, small_dataset, rng
    ):
        protocol = RRJoint(small_dataset.schema, p=0.6)
        released = protocol.randomize(small_dataset, rng)
        cells = np.array([[0, 0, 0], [1, 2, 3]])
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            protocol.estimate_set_frequency(released, cells)
        warning = _assert_blames_caller(record)
        assert "names, cells" in str(warning.message)
