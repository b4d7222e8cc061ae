let () =
  Alcotest.run "geospanner"
    (Test_geometry.suites @ Test_netgraph.suites @ Test_delaunay.suites
   @ Test_wireless.suites @ Test_distsim.suites @ Test_mis.suites
   @ Test_cds.suites @ Test_ldel.suites @ Test_protocol.suites
   @ Test_routing.suites @ Test_properties.suites @ Test_viz.suites
   @ Test_maintenance.suites @ Test_claims.suites @ Test_broadcast.suites
   @ Test_packetsim.suites @ Test_stress.suites @ Test_async.suites
   @ Test_energy.suites @ Test_integration.suites @ Test_obs.suites
   @ Test_metrics_engine.suites @ Test_trace.suites
   @ Test_monitor.suites @ Test_shard.suites @ Test_serve.suites
   @ Test_export.suites @ Test_lint.suites)
