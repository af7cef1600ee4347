module teccl/bench

go 1.24

require teccl v0.0.0

replace teccl => ../
