package org.apache.spark

/** Lets a test wait until every queued listener event has been delivered,
  * so a listener's counts are complete when it is read. The listener bus is
  * `private[spark]`, hence this package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
