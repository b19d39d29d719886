"""Pinned study digests: ``"<dataset>/seed<n>/<scale>"`` -> SHA-256.

The digest is the SHA-256 of the study document ``repro study --save``
writes (the program's ``study_digest``); its first 16 hex digits are the
snapshot version every served body carries.  Seed 7 is the program's
default; seed 11 is kept so that a performance claim made while looking
at seed 7 can be re-checked on a seed not used while it was written::

    python3 perfbench/run.py --workload study-korean --seed 1 --dataset-seed 11
"""

PINNED_DIGESTS = {
    "korean/seed7/default": "52ba326cc4430710a4a16df16d8fd73bc3e5bd43208350d666ca28c162329d1d",
    "ladygaga/seed7/default": "1a2e92cffa3825372b74e272de038291881cf19374c5e6603b258115508698cc",
    "korean/seed11/default": "20ab5bc23817fe768bbdcdb86efdeef08c089379abd8d2f53d2aff33ccddfde3",
    "ladygaga/seed11/default": "aa20440235ab7113b22f19288a6e9e065062b103d1db19cd9be81e15f3157715",
    "korean/seed7/small": "5e40e0d217226c31b82977023dcd36bb35de0541f3d06a693c1573e004fc823f",
    "ladygaga/seed7/small": "98d4a44f01c2385ccbdc324d5adaef10a8435195e9b356e103333735d860cd26",
    "korean/seed11/small": "97bc32a294f6207b1f48e2844963e40645299707ffe269022e9ed66b3eaed9b2",
    "ladygaga/seed11/small": "df7e3cd150f41ce8fc8c65a91fb7374cc03d2fa6939f8070ff6a1931e68a9d5a",
}
