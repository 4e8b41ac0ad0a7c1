module hierlock/bench

go 1.22

require hierlock v0.0.0

replace hierlock => ../
