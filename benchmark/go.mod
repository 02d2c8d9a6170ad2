module oipsr/benchmark

go 1.24

require oipsr v0.0.0

replace oipsr => ../
