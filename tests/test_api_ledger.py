"""The API ledger (tests/api_ledger.py) against the package and its commands."""

import pytest

import api_ledger
from api_ledger import LEDGER, code_of, public_names


@pytest.fixture(scope="module")
def names():
    return public_names()


@pytest.fixture(scope="module")
def entered(tmp_path_factory):
    return api_ledger.run_matrix(tmp_path_factory.mktemp("matrix"))


def test_every_public_name_has_an_entry(names):
    assert sorted(set(names) - set(LEDGER)) == []


def test_every_entry_names_a_public_name(names):
    assert sorted(set(LEDGER) - set(names)) == []


def test_every_reason_is_cli_a_criterion_or_an_item():
    assert {key: reason for key, reason in LEDGER.items()
            if not api_ledger.REASON.fullmatch(reason)} == {}


def test_every_cli_callable_is_entered(names, entered):
    """A name marked `cli` that has code runs in some command of the matrix."""
    assert sorted(key for key, reason in LEDGER.items()
                  if reason == "cli" and code_of(names.get(key)) and
                  not code_of(names.get(key)) & entered) == []


def test_every_entered_callable_is_marked_cli(names, entered):
    """A public name whose code a command runs is marked `cli`."""
    assert {key: LEDGER.get(key) for key, obj in names.items()
            if code_of(obj) & entered and LEDGER.get(key) != "cli"} == {}
