from functools import lru_cache

from flaghom import WeylGroup, root_system


@lru_cache(maxsize=None)
def cached_group(family: str, rank: int, max_length: int | None = None):
    return WeylGroup(root_system(family, rank), max_length=max_length)
