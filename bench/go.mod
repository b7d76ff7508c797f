module approxhadoop/bench

go 1.22

require approxhadoop v0.0.0

replace approxhadoop => ../
