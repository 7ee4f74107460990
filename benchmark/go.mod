module racesim/benchmark

go 1.24

require racesim v0.0.0

replace racesim => ../
