module mmr/perfbench

go 1.22

require mmr v0.0.0

replace mmr => ../
