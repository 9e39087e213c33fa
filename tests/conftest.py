from hypothesis import settings

# Seeded, so that every property test draws the same examples on every run.
settings.register_profile("suite", deadline=None, max_examples=50, derandomize=True)
settings.load_profile("suite")
