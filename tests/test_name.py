"""Unit tests for hierarchical name handling."""

import pytest

from repro.namespace.name import (
    ROOT_NAME,
    InvalidNameError,
    join,
    split,
    validate_name,
)


class TestValidate:
    def test_root_is_valid(self):
        assert validate_name("/") == "/"

    def test_simple_name(self):
        assert validate_name("/a/b/c") == "/a/b/c"

    def test_rejects_relative(self):
        with pytest.raises(InvalidNameError):
            validate_name("a/b")

    def test_rejects_empty(self):
        with pytest.raises(InvalidNameError):
            validate_name("")

    def test_rejects_trailing_slash(self):
        with pytest.raises(InvalidNameError):
            validate_name("/a/b/")

    def test_rejects_empty_component(self):
        with pytest.raises(InvalidNameError):
            validate_name("/a//b")

    def test_rejects_dot_components(self):
        with pytest.raises(InvalidNameError):
            validate_name("/a/./b")
        with pytest.raises(InvalidNameError):
            validate_name("/a/../b")


class TestSplitJoin:
    def test_split_root(self):
        assert split("/") == ()

    def test_split_components(self):
        assert split("/university/public") == ("university", "public")

    def test_join_empty_is_root(self):
        assert join() == ROOT_NAME

    def test_join_roundtrip(self):
        name = "/university/public/people"
        assert join(*split(name)) == name
