package org.apache.spark

/** Lets the benchmark wait until every queued listener event has been
  * delivered, so a span's Spark counters are complete when it is read. The
  * listener bus is `private[spark]`, hence this package.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
