"""The word rewriter that computed normal forms before the product tables.

Kept as a test oracle.  It rewrites the leftmost redex of a word (a
descending adjacent pair, or a capped generator repeated to its cap) by its
rule and never collects terms, so ``u*y^n`` costs 2^n steps: use it on
short words only.  It reads nothing but the public rules of a presentation.
"""

from fractions import Fraction


class WordBudgetExhausted(Exception):
    pass


def _expand(pres, rules):
    return {k: tuple((Fraction(c), pres.monomial_letters(m))
                     for m, c in sorted(rhs.items()))
            for k, rhs in rules.items()}


def _first_redex(w, swap_rhs, power_rhs, caps):
    for p in range(len(w) - 1):
        a, b = w[p], w[p + 1]
        if a > b:
            return p, 2, swap_rhs[(a, b)]
        if a == b:
            cap = caps.get(a)
            if cap is not None and p + cap <= len(w) \
                    and all(w[p + k] == a for k in range(cap)):
                return p, cap, power_rhs[a]
    return None


def rewrite(pres, word, max_steps=10**6):
    """Normal form of a word of pbw indices, as a dict monomial -> Fraction."""
    swap_rhs = _expand(pres, pres.swap_rules)
    power_rhs = _expand(pres, pres.power_rules)
    caps = {g.pbw_index: g.exp_cap for g in pres.generators if g.exp_cap is not None}
    out = {}
    stack = [(Fraction(1), tuple(word))]
    steps = 0
    while stack:
        c, w = stack.pop()
        steps += 1
        if steps > max_steps:
            raise WordBudgetExhausted(f"{max_steps} rewrite steps in {pres.name}")
        redex = _first_redex(w, swap_rhs, power_rhs, caps)
        if redex is None:
            m = [0] * pres.n
            for idx in w:
                m[idx] += 1
            m = tuple(m)
            new = out.get(m, 0) + c
            if new:
                out[m] = new
            else:
                out.pop(m, None)
            continue
        p, span, rhs = redex
        prefix, suffix = w[:p], w[p + span:]
        for rc, letters in rhs:
            stack.append((c * rc, prefix + letters + suffix))
    return out
