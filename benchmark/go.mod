module jaaru/benchmark

go 1.22

require jaaru v0.0.0

replace jaaru => ../
