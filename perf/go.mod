module menos/perf

go 1.22

require menos v0.0.0

replace menos => ../
