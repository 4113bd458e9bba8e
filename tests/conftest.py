"""One fixed hypothesis profile for the whole suite: derandomized, so every
run draws the same examples, with a bounded example count and no example
database, so a run neither reads nor writes state between runs."""

from hypothesis import settings

settings.register_profile("ndrank", derandomize=True, database=None, max_examples=50,
                          deadline=None)
settings.load_profile("ndrank")
