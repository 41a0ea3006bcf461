module whips/bench

go 1.22

require whips v0.0.0

replace whips => ../
