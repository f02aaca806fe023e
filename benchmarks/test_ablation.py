"""Ablations of MUSIC's design choices (DESIGN.md section 14)."""


def test_ablation_local_vs_quorum_peek(regenerate):
    regenerate("ablation_peek")


def test_ablation_lazy_vs_always_sync(regenerate):
    regenerate("ablation_sync")
