"""Keep pytest out of the planted-violation fixture trees.

The fixtures are deliberately broken sources for the rule tests to lint,
never modules to import or collect.
"""

collect_ignore = ["fixtures"]
