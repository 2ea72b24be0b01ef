"""Rewrite-strategy combinators with stepwise tutoring feedback services."""
