"""The name rule of ``errors.read_json``'s walk: ``is_name`` takes a
printable text without a category look-up per character."""

from __future__ import annotations

import sys
import unicodedata

from thermark.errors import is_name


def test_no_control_character_is_printable():
    # so is_name needs no category look-up for a text that str.isprintable accepts
    assert not [hex(code) for code in range(sys.maxunicode + 1)
                if chr(code).isprintable() and unicodedata.category(chr(code)) == "Cc"]
    assert [is_name(text) for text in ["a", "a b", "é", "a\xa0b", "", "a\nb", "a\x85b"]] == [
        True, True, True, True, False, False, False]
