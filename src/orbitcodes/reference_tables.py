"""Previously published orbit-classification tables, embedded for cross-checking.

Each entry is keyed by (q, n, m).  ``orbits`` is the overall count table,
``full`` the full-length-orbit table and ``degenerate`` one table per
published degenerate orbit length; all are {k: {min_dist: count}}.
``degenerate_stated_zero`` records tables that explicitly claim no
degenerate orbits exist.  Some published tables are incomplete (the mass
check forces additional orbits); ``compare_census`` reports every cell
where a computed census differs, which is how those omissions surface.
"""

from __future__ import annotations

REFERENCE = {
    (2, 6, 1): {
        "orbits": {1: {2: 1}, 2: {2: 10, 4: 1}, 3: {2: 14, 4: 8, 6: 1}},
        "full": {1: {2: 1}, 2: {2: 10}, 3: {2: 14, 4: 8}},
        "degenerate": {21: {2: {4: 1}}, 9: {3: {6: 1}}},
    },
    (2, 7, 1): {
        "orbits": {1: {2: 1}, 2: {2: 21}, 3: {2: 21, 4: 72}},
    },
    (2, 8, 1): {
        "orbits": {1: {2: 1}, 2: {2: 42, 4: 1}, 3: {2: 61, 4: 320},
                   4: {2: 40, 4: 750, 8: 1}},
        "full": {1: {2: 1}, 2: {2: 42}, 3: {2: 61, 4: 320}, 4: {2: 40, 4: 746}},
        "degenerate": {85: {2: {4: 1}, 4: {4: 4}}, 17: {4: {8: 1}}},
    },
    (2, 9, 1): {
        "orbits": {1: {2: 1}, 2: {2: 85}, 3: {2: 84, 4: 1458, 6: 1},
                   4: {2: 93, 4: 5736, 6: 648}},
        "full": {1: {2: 1}, 2: {2: 85}, 3: {2: 84, 4: 1458},
                 4: {2: 93, 4: 5736, 6: 648}},
        "degenerate": {73: {3: {6: 1}}},
    },
    (2, 10, 1): {
        "orbits": {1: {2: 1}, 2: {2: 170, 4: 1}, 3: {2: 255, 4: 5950},
                   4: {2: 166, 4: 31487, 6: 20894},
                   5: {2: 522, 4: 41772, 6: 64472, 10: 1}},
        "full": {1: {2: 1}, 2: {2: 170}, 3: {2: 255, 4: 5950},
                 4: {2: 166, 4: 31470, 6: 20894},
                 5: {2: 522, 4: 41772, 6: 64472}},
        "degenerate": {341: {2: {4: 1}, 4: {4: 17}}, 33: {5: {10: 1}}},
    },
    (2, 8, 3): {
        "full": {1: {2: 3}, 2: {2: 102, 4: 24}, 3: {2: 99, 4: 1044},
                 4: {2: 96, 4: 2262}},
        "degenerate_stated_zero": True,
    },
    (2, 8, 5): {
        "orbits": {1: {2: 5}, 2: {2: 120, 4: 95}, 3: {2: 225, 4: 1680},
                   4: {2: 120, 4: 3590, 6: 240}},
        "full": {1: {2: 5}, 2: {2: 120, 4: 90}, 3: {2: 225, 4: 1680},
                 4: {2: 120, 4: 3570, 6: 240}},
        "degenerate": {17: {2: {4: 5}, 4: {4: 20}}},
    },
    (2, 8, 15): {
        "full": {1: {2: 15}, 2: {2: 120, 4: 510}, 3: {2: 120, 4: 4380, 6: 1215},
                 4: {2: 120, 4: 6000, 6: 5670}},
        "degenerate_stated_zero": True,
    },
    (2, 8, 17): {
        "orbits": {1: {2: 17}, 2: {2: 34, 4: 697}, 3: {2: 357, 4: 2040, 6: 4080},
                   4: {0: 17, 4: 4930, 6: 8160, 8: 340}},
        "full": {1: {2: 17}, 2: {2: 34, 4: 680}, 3: {2: 357, 4: 2040, 6: 4080},
                 4: {4: 4930, 6: 8160, 8: 272}},
        "degenerate": {5: {2: {4: 17}, 4: {8: 68}}, 1: {4: {0: 17}}},
    },
    (2, 8, 51): {
        "full": {1: {2: 51}, 2: {2: 102, 4: 2040}, 3: {2: 51, 4: 6120, 6: 13260},
                 4: {4: 5610, 6: 32640, 8: 1836}},
        "degenerate_stated_zero": True,
    },
    (2, 8, 85): {
        "orbits": {1: {2: 85}, 2: {0: 85, 4: 3570}, 3: {2: 1785, 6: 30600},
                   4: {0: 340, 4: 17850, 8: 48960}},
        "full": {1: {2: 85}, 2: {4: 3570}, 3: {2: 1785, 6: 30600},
                 4: {4: 17850, 8: 48960}},
        "degenerate": {1: {2: {0: 85}, 4: {0: 340}}},
    },
}


def compare_census(table) -> list:
    """Cell-by-cell diff of a computed CensusTable against the published values.

    Returns a list of dicts {table, k, d, length, reference, computed}; an
    empty list means every published cell matches and nothing extra was
    computed.  Cells the publication omits appear with reference 0.
    """
    ref = REFERENCE.get((table.q, table.n, table.m))
    if ref is None:
        return []
    diffs = []
    k = table.k
    full_len = table.full_length

    def diff_against(name, ref_row, computed_row, length):
        for d in sorted(set(ref_row) | set(computed_row)):
            r, c = ref_row.get(d, 0), computed_row.get(d, 0)
            if r != c:
                diffs.append({"table": name, "k": k, "d": d, "length": length,
                              "reference": r, "computed": c})

    if "orbits" in ref:
        diff_against("orbits", ref["orbits"].get(k, {}), table.by_distance(), None)
    if "full" in ref:
        diff_against("full", ref["full"].get(k, {}),
                     table.by_distance(length=full_len), full_len)
    published_degenerate = ref.get("degenerate", {})
    degenerate_lengths = {ln for ln in table.lengths() if ln != full_len}
    for ln in sorted(set(published_degenerate) | degenerate_lengths, reverse=True):
        diff_against(f"degenerate:{ln}", published_degenerate.get(ln, {}).get(k, {}),
                     table.by_distance(length=ln), ln)
    if ref.get("degenerate_stated_zero") and degenerate_lengths:
        count = sum(c for (ln, _), c in table.counts.items() if ln != full_len)
        if count:
            diffs.append({"table": "degenerate-total", "k": k, "d": None,
                          "length": None, "reference": 0, "computed": count})
    return diffs
