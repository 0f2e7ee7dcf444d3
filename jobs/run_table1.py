"""Table I: running-example scores (paper §II, Fig. 1)."""
from repro.experiments.tables import table1


def main() -> None:
    print("Table I — running example, t=1, target c1")
    print(table1().to_string(index=False))


if __name__ == "__main__":
    main()
