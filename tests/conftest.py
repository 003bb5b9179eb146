import pytest

# _properties holds the checks shared by test_properties.py and the acceptance gate;
# rewriting its bare asserts makes a failure show its operands, not a bare AssertionError()
pytest.register_assert_rewrite("_properties")
