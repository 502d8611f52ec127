"""Cases of the integer-argument tests.

An entry point that takes an integer must raise ``LayoutError`` naming the
argument for a bool, a float (2.0 too) or a string, and for a value below
its bound, and it must take a numpy integer.  ``integer_cases`` builds these
cases as pytest params and ``check_integer_case`` runs one.
"""
import re

import numpy as np
import pytest

from entwit import LayoutError

NON_INTEGERS = (True, 2.0, 2.5, "2")


def integer_cases(entries, own=None, values=NON_INTEGERS):
    """Params (call, value, message) over ``entries``, a dict from a case name
    to (call of one argument, argument name in the message, least valid value
    or None).  The cases of entry ``own`` are named by the value alone; a
    message of None means the call must pass."""
    cases = []
    for key, (call, what, least) in entries.items():
        prefix = "" if key == own else f"{key}-"
        for v in values:
            message = f"{what} must be an integer, got {v!r}"
            cases.append(pytest.param(call, v, message, id=f"{prefix}{v}"))
        if least is not None:
            message = f"{what} must be >= {least}, got {least - 1}"
            cases.append(pytest.param(call, least - 1, message, id=f"{prefix}below"))
        valid = np.int64(2 if least is None else least)
        cases.append(pytest.param(call, valid, None, id=f"{prefix}numpy"))
    return cases


def check_integer_case(call, value, message):
    if message is None:
        call(value)
        return
    with pytest.raises(LayoutError, match=re.escape(message)):
        call(value)
