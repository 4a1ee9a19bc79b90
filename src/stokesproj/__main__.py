"""``python -m stokesproj <subcommand>``: the experiment driver in ``cli``."""

if __name__ == "__main__":
    from .cli import main

    raise SystemExit(main())
