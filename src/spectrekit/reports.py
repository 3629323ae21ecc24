"""Structured results for lemma checkers.

A checker runs a list of individual verifications and reports each as a
CheckItem; the surrounding LemmaReport passes only when every applicable
item does.  Details are pre-rendered strings with exact rational values, so
serializing a report never rounds anything.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple


class CheckItem(NamedTuple):
    label: str
    passed: bool
    detail: str = ""


class LemmaReport(NamedTuple):
    name: str
    items: Tuple[CheckItem, ...]
    note: str = ""

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def failures(self) -> List[CheckItem]:
        return [item for item in self.items if not item.passed]
