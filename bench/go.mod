module pinnedloads/bench

go 1.23

require pinnedloads v0.0.0

replace pinnedloads => ../
