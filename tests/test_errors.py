"""Typed errors survive pickling, as they must to leave a worker process."""

import pickle

import pytest

from lmcflab import errors

LAB_ERRORS = [e for e in vars(errors).values()
              if isinstance(e, type) and issubclass(e, errors.LabError)]
ARGS = {errors.NotExact: (0.25, 3)}


@pytest.mark.parametrize("cls", LAB_ERRORS, ids=lambda c: c.__name__)
def test_every_lab_error_round_trips_through_pickle(cls):
    err = cls(*ARGS.get(cls, ("a message",)))
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err)
    assert vars(back) == vars(err)


def test_not_exact_keeps_its_holonomy_and_component():
    back = pickle.loads(pickle.dumps(errors.NotExact(0.25, 3)))
    assert (back.holonomy, back.component_id) == (0.25, 3)
    assert pickle.loads(pickle.dumps(errors.NotExact(-1.5))).component_id is None
