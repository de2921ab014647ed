"""The word rewriter that computed normal forms before the product tables.

Kept as a test oracle.  It treats ``pres.rules`` as a generic reduction
system: it rewrites the leftmost occurrence of any left-hand word by that
rule's right-hand side, the shortest word first at one position, and never
collects terms, so ``u*y^n`` costs 2^n steps: use it on short words only.
It reads nothing but the public rule table of a presentation.
"""

from fractions import Fraction


class WordBudgetExhausted(Exception):
    pass


def _first_redex(w, rules):
    for p in range(len(w)):
        for lhs, rhs in rules:
            if w[p:p + len(lhs)] == lhs:
                return p, len(lhs), rhs
    return None


def rewrite(pres, word, max_steps=10**6):
    """Normal form of a word of pbw indices, as a dict monomial -> Fraction."""
    rules = [(lhs, tuple((Fraction(c), pres.monomial_letters(m))
                         for m, c in sorted(rhs.items())))
             for lhs, rhs in sorted(pres.rules.items(), key=lambda r: (len(r[0]), r[0]))]
    out = {}
    stack = [(Fraction(1), tuple(word))]
    steps = 0
    while stack:
        c, w = stack.pop()
        steps += 1
        if steps > max_steps:
            raise WordBudgetExhausted(f"{max_steps} rewrite steps in {pres.name}")
        redex = _first_redex(w, rules)
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
