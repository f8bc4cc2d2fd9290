// two_zone_benchmark: 2-zone occupancy/thermal reward model
// horizon K=9, theta=9, step length 1 h
// modules synchronize on step labels t1..t10; t_sink loops the
// absorbing final state

dtmc

module zone_zone1
  step_zone1 : [0..10] init 0;
  occ_zone1 : [0..1] init 0;

  [t1] step_zone1=0 & occ_zone1=0 -> 0.4166666666666667:(step_zone1'=1)&(occ_zone1'=1) + 0.5833333333333333:(step_zone1'=1)&(occ_zone1'=0);
  [t2] step_zone1=1 & occ_zone1=1 -> 0.6666666666666666:(step_zone1'=2)&(occ_zone1'=1) + 0.33333333333333337:(step_zone1'=2)&(occ_zone1'=0);
  [t2] step_zone1=1 & occ_zone1=0 -> 0.3142857142857143:(step_zone1'=2)&(occ_zone1'=1) + 0.6857142857142857:(step_zone1'=2)&(occ_zone1'=0);
  [t3] step_zone1=2 & occ_zone1=1 -> 0.5301204819277109:(step_zone1'=3)&(occ_zone1'=1) + 0.4698795180722891:(step_zone1'=3)&(occ_zone1'=0);
  [t3] step_zone1=2 & occ_zone1=0 -> 0.13402061855670103:(step_zone1'=3)&(occ_zone1'=1) + 0.865979381443299:(step_zone1'=3)&(occ_zone1'=0);
  [t4] step_zone1=3 & occ_zone1=1 -> 0.631578947368421:(step_zone1'=4)&(occ_zone1'=1) + 0.368421052631579:(step_zone1'=4)&(occ_zone1'=0);
  [t4] step_zone1=3 & occ_zone1=0 -> 0.08130081300813008:(step_zone1'=4)&(occ_zone1'=1) + 0.9186991869918699:(step_zone1'=4)&(occ_zone1'=0);
  [t5] step_zone1=4 & occ_zone1=1 -> 0.5217391304347826:(step_zone1'=5)&(occ_zone1'=1) + 0.4782608695652174:(step_zone1'=5)&(occ_zone1'=0);
  [t5] step_zone1=4 & occ_zone1=0 -> 0.03731343283582089:(step_zone1'=5)&(occ_zone1'=1) + 0.9626865671641791:(step_zone1'=5)&(occ_zone1'=0);
  [t6] step_zone1=5 & occ_zone1=1 -> 0.3793103448275862:(step_zone1'=6)&(occ_zone1'=1) + 0.6206896551724138:(step_zone1'=6)&(occ_zone1'=0);
  [t6] step_zone1=5 & occ_zone1=0 -> 0.059602649006622516:(step_zone1'=6)&(occ_zone1'=1) + 0.9403973509933775:(step_zone1'=6)&(occ_zone1'=0);
  [t7] step_zone1=6 & occ_zone1=1 -> 0.35:(step_zone1'=7)&(occ_zone1'=1) + 0.65:(step_zone1'=7)&(occ_zone1'=0);
  [t7] step_zone1=6 & occ_zone1=0 -> 0.04375:(step_zone1'=7)&(occ_zone1'=1) + 0.95625:(step_zone1'=7)&(occ_zone1'=0);
  [t8] step_zone1=7 & occ_zone1=1 -> 0.35714285714285715:(step_zone1'=8)&(occ_zone1'=1) + 0.6428571428571428:(step_zone1'=8)&(occ_zone1'=0);
  [t8] step_zone1=7 & occ_zone1=0 -> 0.04216867469879518:(step_zone1'=8)&(occ_zone1'=1) + 0.9578313253012049:(step_zone1'=8)&(occ_zone1'=0);
  [t9] step_zone1=8 & occ_zone1=1 -> 0:(step_zone1'=9)&(occ_zone1'=1) + 1:(step_zone1'=9)&(occ_zone1'=0);
  [t9] step_zone1=8 & occ_zone1=0 -> 0.017857142857142856:(step_zone1'=9)&(occ_zone1'=1) + 0.9821428571428571:(step_zone1'=9)&(occ_zone1'=0);
  [t10] step_zone1=9 -> 1:(step_zone1'=10)&(occ_zone1'=0);
  [t_sink] step_zone1=10 -> 1:(step_zone1'=10);
endmodule

module zone_zone2
  step_zone2 : [0..10] init 0;
  occ_zone2 : [0..1] init 0;

  [t1] step_zone2=0 & occ_zone2=0 -> 0.15:(step_zone2'=1)&(occ_zone2'=1) + 0.85:(step_zone2'=1)&(occ_zone2'=0);
  [t2] step_zone2=1 & occ_zone2=1 -> 0.5185185185185185:(step_zone2'=2)&(occ_zone2'=1) + 0.4814814814814815:(step_zone2'=2)&(occ_zone2'=0);
  [t2] step_zone2=1 & occ_zone2=0 -> 0.20915032679738563:(step_zone2'=2)&(occ_zone2'=1) + 0.7908496732026143:(step_zone2'=2)&(occ_zone2'=0);
  [t3] step_zone2=2 & occ_zone2=1 -> 0.6304347826086957:(step_zone2'=3)&(occ_zone2'=1) + 0.3695652173913043:(step_zone2'=3)&(occ_zone2'=0);
  [t3] step_zone2=2 & occ_zone2=0 -> 0.21641791044776118:(step_zone2'=3)&(occ_zone2'=1) + 0.7835820895522388:(step_zone2'=3)&(occ_zone2'=0);
  [t4] step_zone2=3 & occ_zone2=1 -> 0.6724137931034483:(step_zone2'=4)&(occ_zone2'=1) + 0.3275862068965517:(step_zone2'=4)&(occ_zone2'=0);
  [t4] step_zone2=3 & occ_zone2=0 -> 0.19672131147540983:(step_zone2'=4)&(occ_zone2'=1) + 0.8032786885245902:(step_zone2'=4)&(occ_zone2'=0);
  [t5] step_zone2=4 & occ_zone2=1 -> 0.5396825396825397:(step_zone2'=5)&(occ_zone2'=1) + 0.46031746031746035:(step_zone2'=5)&(occ_zone2'=0);
  [t5] step_zone2=4 & occ_zone2=0 -> 0.3162393162393162:(step_zone2'=5)&(occ_zone2'=1) + 0.6837606837606838:(step_zone2'=5)&(occ_zone2'=0);
  [t6] step_zone2=5 & occ_zone2=1 -> 0.5633802816901409:(step_zone2'=6)&(occ_zone2'=1) + 0.43661971830985913:(step_zone2'=6)&(occ_zone2'=0);
  [t6] step_zone2=5 & occ_zone2=0 -> 0.22935779816513763:(step_zone2'=6)&(occ_zone2'=1) + 0.7706422018348624:(step_zone2'=6)&(occ_zone2'=0);
  [t7] step_zone2=6 & occ_zone2=1 -> 0.27692307692307694:(step_zone2'=7)&(occ_zone2'=1) + 0.7230769230769231:(step_zone2'=7)&(occ_zone2'=0);
  [t7] step_zone2=6 & occ_zone2=0 -> 0.14782608695652175:(step_zone2'=7)&(occ_zone2'=1) + 0.8521739130434782:(step_zone2'=7)&(occ_zone2'=0);
  [t8] step_zone2=7 & occ_zone2=1 -> 0.4:(step_zone2'=8)&(occ_zone2'=1) + 0.6:(step_zone2'=8)&(occ_zone2'=0);
  [t8] step_zone2=7 & occ_zone2=0 -> 0.06896551724137931:(step_zone2'=8)&(occ_zone2'=1) + 0.9310344827586207:(step_zone2'=8)&(occ_zone2'=0);
  [t9] step_zone2=8 & occ_zone2=1 -> 0.16666666666666666:(step_zone2'=9)&(occ_zone2'=1) + 0.8333333333333334:(step_zone2'=9)&(occ_zone2'=0);
  [t9] step_zone2=8 & occ_zone2=0 -> 0.04487179487179487:(step_zone2'=9)&(occ_zone2'=1) + 0.9551282051282052:(step_zone2'=9)&(occ_zone2'=0);
  [t10] step_zone2=9 -> 1:(step_zone2'=10)&(occ_zone2'=0);
  [t_sink] step_zone2=10 -> 1:(step_zone2'=10);
endmodule

rewards "zone_zone1"
  step_zone1=0 : 17.00159028305705;
  step_zone1=1 : 1.5;
  step_zone1=2 : 1.6986087708093067;
  step_zone1=3 : 0.25122081663872603;
  step_zone1=4 : 0.22358878520672495;
  step_zone1=5 : 0.21106037852025916;
  step_zone1=6 : 0.18913941305189771;
  step_zone1=7 : 0.15122178827777777;
  step_zone1=8 : 0.07893627777777776;
  step_zone1=9 : 0.04666666666666666;
endrewards

rewards "zone_zone2"
  step_zone2=0 : 17.001073030626024;
  step_zone2=1 : 1.5;
  step_zone2=2 : 1.6983061329920248;
  step_zone2=3 : 0.25063673221837485;
  step_zone2=4 : 0.22362830965693756;
  step_zone2=5 : 0.21274269112319757;
  step_zone2=6 : 0.1995457769099511;
  step_zone2=7 : 0.1791378512777778;
  step_zone2=8 : 0.11155394444444444;
  step_zone2=9 : 0.09333333333333332;
endrewards
